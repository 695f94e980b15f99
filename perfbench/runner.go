package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"edn"
	"edn/internal/serve"
)

// jobRecord is one timed job: what was asked, how long the caller
// waited from submit to serialized result bytes, and what came back.
type jobRecord struct {
	spec  edn.JobSpec
	key   int  // direct: position in the round; cosim: client index
	fresh bool // cosim: carried a fresh fault-sample seed
	dur   time.Duration
	done  time.Duration // completion, from the start of the phase
	// serialize is the result marshal time the caller paid (direct
	// workloads; the served workload reads the server's serialize span).
	serialize time.Duration
	bytes     int
	wsc       int64
	// retries and issued are a closed-loop result's request ledger.
	retries, issued int64
	sum             [32]byte // sha256 of the result bytes
	// result holds the served result bytes of each client's first
	// keptResults jobs, the pool the cold re-run check samples. Later
	// served jobs also drop their spec.
	result []byte
	spans  *edn.Span
	err    error
}

// phase is one timed stretch of a workload's job stream.
type phase struct {
	records []jobRecord
	d       time.Duration // the requested length
	window  time.Duration // the length run, up to the last completion
	// cache counter deltas over the phase, for the hit ratio.
	hits, lookups int64
	// workers is the serving pool size (cosim) or 0.
	workers int
}

func (p *phase) jobs() int { return len(p.records) }

func (p *phase) failed() int {
	n := 0
	for i := range p.records {
		if p.records[i].err != nil {
			n++
		}
	}
	return n
}

// --- direct workloads: edn.RunJob with a shared geometry cache -------

type directEnv struct {
	cache *edn.GeometryCache
	// tablesCold holds the cold table-build times set-up paid.
	tablesCold []time.Duration
}

// setupDirect is one set-up of a direct workload: validate every spec
// of the round, build the round's routing tables cold into a fresh
// cache, and run one shortened job per distinct spec shape so lazy
// set-up finishes before timing.
func setupDirect(ctx context.Context, w *workload) (*directEnv, error) {
	env := &directEnv{cache: edn.NewGeometryCache(0)}
	for i, s := range w.round {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
	}
	seen := map[string]bool{}
	for _, s := range w.round {
		cfg, err := s.Geometry.Compile()
		if err != nil {
			return nil, err
		}
		key := s.Engine + cfg.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		t0 := time.Now()
		if s.Engine == edn.EngineDilated {
			d, err := edn.DilatedCounterpart(cfg)
			if err != nil {
				return nil, err
			}
			_, _, err = env.cache.DilatedTables(d)
			if err != nil {
				return nil, err
			}
		} else if _, _, err := env.cache.Tables(cfg); err != nil {
			return nil, err
		}
		env.tablesCold = append(env.tablesCold, time.Since(t0))
		ws := warmupSpec(s)
		res, err := edn.RunJob(ctx, ws, edn.RunOptions{Cache: env.cache})
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := checkResult(ws, res); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// runDirect runs whole rounds of the workload's specs until d has
// elapsed, so every phase holds the round's job mix exactly. traced
// records each job's span tree through RunOptions.Trace.
func runDirect(ctx context.Context, w *workload, env *directEnv, d time.Duration, traced bool) *phase {
	p := &phase{d: d}
	before := env.cache.Stats()
	first := make([]*[32]byte, len(w.round))
	start := time.Now()
	for time.Since(start) < d {
		for k, spec := range w.round {
			rec := runDirectJob(ctx, spec, env.cache, traced)
			rec.key = k
			rec.done = time.Since(start)
			if rec.err == nil {
				// A repeated spec must return byte-identical results.
				if first[k] == nil {
					sum := rec.sum
					first[k] = &sum
				} else if *first[k] != rec.sum {
					rec.err = fmt.Errorf("spec %d: result bytes differ from its first run", k)
				}
			}
			p.records = append(p.records, rec)
		}
	}
	p.window = time.Since(start)
	after := env.cache.Stats()
	p.hits = after.Hits - before.Hits
	p.lookups = p.hits + after.Misses - before.Misses
	return p
}

func runDirectJob(ctx context.Context, spec edn.JobSpec, cache *edn.GeometryCache, traced bool) jobRecord {
	rec := jobRecord{spec: spec}
	var tr *edn.SpanCollector
	if traced {
		tr = edn.NewSpanCollector("job")
	}
	var explain *edn.AnatomyReport
	t0 := time.Now()
	res, err := edn.RunJob(ctx, spec, edn.RunOptions{
		Cache:     cache,
		Trace:     tr,
		OnExplain: func(r *edn.AnatomyReport) { explain = r },
	})
	ts := time.Now()
	var b, eb []byte
	if err == nil {
		b, err = json.Marshal(res)
	}
	if err == nil && explain != nil {
		eb, err = json.Marshal(explain)
	}
	t1 := time.Now()
	rec.dur, rec.serialize = t1.Sub(t0), t1.Sub(ts)
	rec.bytes = len(b) + len(eb)
	rec.spans = tr.Finish()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.sum = sha256.Sum256(b)
	if err := checkResult(spec, res); err != nil {
		rec.err = err
		return rec
	}
	if err := checkExplain(spec, explain); err != nil {
		rec.err = err
		return rec
	}
	if c := res.ClosedLoopLifetime; c != nil {
		rec.retries, rec.issued = c.Ledger.Retries, c.Ledger.Issued
	}
	rec.wsc, rec.err = wsc(spec, res)
	return rec
}

// --- the co-simulation workload: serve.Server over stdio pipes -------

const (
	cosimClients = 2
	cosimWorkers = 2
)

// cosimEnv is a running in-process server with one stdio conversation
// per client, each over a pair of io.Pipes.
type cosimEnv struct {
	srv     *serve.Server
	clients []*cosimClient
	wg      sync.WaitGroup
}

type cosimClient struct {
	idx    int
	reqW   *io.PipeWriter
	events *bufio.Reader
	stream *cosimStream
	nextID int
}

// startCosim starts a server (spans on when traced) and its client
// conversations. stop ends them and waits for every goroutine.
func startCosim(seed uint64, traced bool) *cosimEnv {
	env := &cosimEnv{srv: serve.New(serve.Options{Workers: cosimWorkers, DisableSpans: !traced})}
	for c := 0; c < cosimClients; c++ {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		env.wg.Add(1)
		go func() {
			defer env.wg.Done()
			env.srv.ServeStdio(context.Background(), inR, outW) //nolint:errcheck // ends when the client closes its pipe
			outW.Close()
		}()
		env.clients = append(env.clients, &cosimClient{
			idx: c, reqW: inW, events: bufio.NewReaderSize(outR, 64<<10), stream: newCosimStream(seed, c),
		})
	}
	return env
}

func (env *cosimEnv) stop() {
	for _, c := range env.clients {
		c.reqW.Close()
		io.Copy(io.Discard, c.events) //nolint:errcheck // draining until the server hangs up
	}
	env.wg.Wait()
}

// warm is the served workload's set-up after server start: build every
// geometry's tables and the repeat seed set's fault masks into the
// server's cache, then send one request per geometry through each
// client's conversation.
func (env *cosimEnv) warm() ([]time.Duration, error) {
	cache := env.srv.Cache()
	var cold []time.Duration
	for _, g := range cosimGeometries {
		cfg, err := g.Compile()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, _, err := cache.Tables(cfg); err != nil {
			return nil, err
		}
		cold = append(cold, time.Since(t0))
		for _, fs := range cosimRepeatSeeds {
			if _, _, err := cache.Masks(cfg, edn.FaultWires, cosimFaultFraction, fs); err != nil {
				return nil, err
			}
		}
		for _, c := range env.clients {
			spec := edn.JobSpec{
				Mode:     edn.JobEstimate,
				Geometry: &g,
				Load:     0.5,
				Estimate: &edn.EstimateSpec{Src: 0, Dst: cfg.Outputs() - 1},
				Queue:    &edn.QueueSpec{Depth: 4, Policy: "backpressure"},
				Faults:   &edn.FaultsSpec{Mode: "wires", Fraction: cosimFaultFraction, Seed: cosimRepeatSeeds[0]},
				Sim:      edn.SimSpec{Cycles: 64, Warmup: 8, Seed: 1, Shards: 1},
			}
			rec := c.do(spec)
			if rec.err != nil {
				return nil, fmt.Errorf("warm-up: %w", rec.err)
			}
		}
	}
	return cold, nil
}

// do sends one run request and waits for its terminal event: the
// client-seen job time runs from the request write to holding the
// terminal event's serialized result bytes.
func (c *cosimClient) do(spec edn.JobSpec) jobRecord {
	rec := jobRecord{spec: spec, key: c.idx}
	c.nextID++
	id := "c" + strconv.Itoa(c.idx) + "-" + strconv.Itoa(c.nextID)
	line, err := json.Marshal(serve.Request{ID: id, Op: "run", Spec: &spec})
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	if _, err := c.reqW.Write(append(line, '\n')); err != nil {
		rec.err = err
		return rec
	}
	for {
		l, err := c.events.ReadBytes('\n')
		if err != nil {
			rec.err = fmt.Errorf("job %s: %w", id, err)
			return rec
		}
		var ev struct {
			ID     string          `json:"id"`
			Event  string          `json:"event"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
			Spans  *edn.Span       `json:"spans"`
		}
		if err := json.Unmarshal(l, &ev); err != nil {
			rec.err = fmt.Errorf("job %s: bad event: %w", id, err)
			return rec
		}
		if ev.ID != id {
			continue
		}
		switch ev.Event {
		case "result":
			rec.dur = time.Since(t0)
			rec.result, rec.spans = ev.Result, ev.Spans
			rec.bytes = len(ev.Result)
			return rec
		case "error":
			rec.dur = time.Since(t0)
			rec.err = fmt.Errorf("job %s: %s", id, ev.Error)
			return rec
		}
	}
}

// runCosim runs the closed loop: each client sends its next request
// only after the terminal event of its last, until d has elapsed. Each
// result is checked as it arrives, off the job's clock.
func runCosim(env *cosimEnv, d time.Duration) *phase {
	p := &phase{d: d, workers: cosimWorkers}
	before := env.srv.Cache().Stats()
	per := make([][]jobRecord, len(env.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				spec, fresh := c.stream.next()
				rec := c.do(spec)
				rec.done = time.Since(start)
				rec.fresh = fresh
				if rec.err == nil {
					rec.err = checkServed(&rec)
				}
				if len(per[i]) >= keptResults {
					// Past the re-run pool, keep only what the metrics need,
					// so the harness's own memory stays small beside the
					// server's in peak_rss_mb.
					rec.result, rec.spec = nil, edn.JobSpec{}
				}
				per[i] = append(per[i], rec)
			}
		}()
	}
	wg.Wait()
	p.window = time.Since(start)
	after := env.srv.Cache().Stats()
	p.hits = after.Hits - before.Hits
	p.lookups = p.hits + after.Misses - before.Misses
	for _, recs := range per {
		p.records = append(p.records, recs...)
	}
	return p
}

// keptResults is how many jobs per client keep their spec and served
// result bytes.
const keptResults = 64

// checkServed decodes a served result and applies the invariant checks.
func checkServed(rec *jobRecord) error {
	rec.sum = sha256.Sum256(rec.result)
	var res edn.JobResult
	if err := json.Unmarshal(rec.result, &res); err != nil {
		return fmt.Errorf("decoding served result: %w", err)
	}
	if err := checkResult(rec.spec, &res); err != nil {
		return err
	}
	var err error
	rec.wsc, err = wsc(rec.spec, &res)
	return err
}

// checkColdReruns re-runs a sample of served jobs through a cache-less
// edn.Run and requires byte-identical result bytes: the repository's
// cache-hit == cold-build pin, checked end to end through the daemon.
// The sample takes fresh-seed and repeat-seed jobs and any 1,024-port
// ones, a few of each.
func checkColdReruns(ctx context.Context, p *phase) (int, error) {
	var fresh, repeat, large int
	checked := 0
	for i := range p.records {
		rec := &p.records[i]
		if rec.err != nil || rec.result == nil {
			continue
		}
		isLarge := rec.spec.Geometry.A == 64
		switch {
		case isLarge && large < 2:
			large++
		case !isLarge && rec.fresh && fresh < 4:
			fresh++
		case !isLarge && !rec.fresh && repeat < 4:
			repeat++
		default:
			continue
		}
		res, err := edn.Run(ctx, rec.spec)
		if err != nil {
			return checked, fmt.Errorf("cold re-run: %w", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return checked, err
		}
		checked++
		if string(b) != string(rec.result) {
			return checked, fmt.Errorf("served result of %s job differs from a cache-less edn.Run", rec.spec.Mode)
		}
	}
	return checked, nil
}

// digest folds the result hashes of a fixed, run-length-independent set
// of jobs: the first round of a direct workload, or each client's first
// digestJobs requests of the served one. false when the phase holds
// fewer.
func digest(w *workload, p *phase) (string, bool) {
	h := sha256.New()
	if !w.cosim {
		if len(p.records) < len(w.round) {
			return "", false
		}
		for _, r := range p.records[:len(w.round)] {
			h.Write(r.sum[:])
		}
		return fmt.Sprintf("%x", h.Sum(nil))[:16], true
	}
	for c := 0; c < cosimClients; c++ {
		n := 0
		for _, r := range p.records {
			if r.key == c && n < digestJobs {
				h.Write(r.sum[:])
				n++
			}
		}
		if n < digestJobs {
			return "", false
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], true
}

const digestJobs = 16

// rates is the phase's throughput: completed jobs and wire-stage-cycles
// per host second, each the median over sub-windows so a transient
// stall on a shared host moves it little. A direct workload's
// sub-window is one round, which holds the round's job mix exactly; its
// wall time is the sum of its jobs'. The served workload's sub-window
// is each block of rateBlock consecutive completions, timed from the
// completion before it. n is the number of sub-windows.
func rates(w *workload, p *phase) (jobsPerS, wscPerS float64, n int) {
	var jobs, wscs []float64
	if !w.cosim {
		size := len(w.round)
		for r := 0; (r+1)*size <= len(p.records); r++ {
			var wall, work float64
			for _, rec := range p.records[r*size : (r+1)*size] {
				wall += rec.dur.Seconds()
				work += float64(rec.wsc)
			}
			jobs = append(jobs, float64(size)/wall)
			wscs = append(wscs, work/wall)
		}
		return median(jobs), median(wscs), len(jobs)
	}
	recs := append([]jobRecord(nil), p.records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].done < recs[j].done })
	var prev time.Duration
	for b := 0; (b+1)*rateBlock <= len(recs); b++ {
		block := recs[b*rateBlock : (b+1)*rateBlock]
		var work float64
		for _, rec := range block {
			work += float64(rec.wsc)
		}
		span := (block[len(block)-1].done - prev).Seconds()
		prev = block[len(block)-1].done
		jobs = append(jobs, rateBlock/span)
		wscs = append(wscs, work/span)
	}
	return median(jobs), median(wscs), len(jobs)
}

// rateBlock is the served workload's throughput sub-window, in
// completions: long enough to hold the request schedule's mix several
// times over, short enough for a 20 s run to hold about twenty.
const rateBlock = 400
