// Command perfbench is the simulator's whole-job benchmark: it streams
// edn.JobSpec jobs of one named workload through the public entry points
// (edn.RunJob, or serve.Server over its stdio protocol), times each job
// from submit to serialized result bytes, checks every output, and
// prints one JSON line of metrics last. Run it through run.py, which
// builds it from the enclosing checkout:
//
//	python3 perfbench/run.py --workload sweep-4k --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics (host wall clock, no tracing).
// --trace 1 prints the per-layer metrics: an untraced stretch, a traced
// stretch whose span trees split job time by module, and replays that
// drive the workload's engines from this package with every call timed.
// BENCHMARK.md documents the workloads, the metrics, the wsc accounting
// rule and the predictions each per-layer metric carries.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 9

// defaultSeed is the seed whose result digests golden.json records.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: sweep-4k, loop-churn, cosim-estimate or explain-hotspot")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; every spec field derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := newWorkload(*workload, *seed)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, d: time.Duration(*seconds * float64(time.Second))}
	// The working directory is the checkout root (run.py runs us there).
	facts := gatherHostFacts(".", w.name, *seed, *trace)
	var res *result
	if *trace == 0 {
		res, err = b.endToEnd(context.Background())
	} else {
		res, err = b.perLayer(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(map[string]any{"host": facts})
	emit(map[string]any{"report": b.report})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed uint64
	d    time.Duration

	setupS     []float64
	tablesCold []float64 // µs per cold table build, across set-ups
	direct     *directEnv
	cosim      *cosimEnv

	report map[string]any
}

// setup sets the workload up `setups` times, keeping the last.
func (b *bench) setup(ctx context.Context) error {
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var cold []time.Duration
		if b.w.cosim {
			env := startCosim(b.seed, false)
			c, err := env.warm()
			if err != nil {
				env.stop()
				return fmt.Errorf("set-up: %w", err)
			}
			if b.cosim != nil {
				b.cosim.stop()
			}
			b.cosim, cold = env, c
		} else {
			env, err := setupDirect(ctx, b.w)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			b.direct, cold = env, env.tablesCold
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		for _, c := range cold {
			b.tablesCold = append(b.tablesCold, us(c))
		}
	}
	return nil
}

func (b *bench) close() {
	if b.cosim != nil {
		b.cosim.stop()
		b.cosim = nil
	}
}

// phase runs the job stream for d, untraced unless traced. A traced
// served phase needs a server with spans on: it starts one and warms it
// off the clock.
func (b *bench) phase(ctx context.Context, d time.Duration, traced bool) (*phase, error) {
	// Every timed stretch starts from a collected heap, so garbage left by
	// set-up or an earlier stretch is not charged to it.
	runtime.GC()
	if !b.w.cosim {
		return runDirect(ctx, b.w, b.direct, d, traced), nil
	}
	if !traced {
		return runCosim(b.cosim, d), nil
	}
	env := startCosim(b.seed, true)
	defer env.stop()
	if _, err := env.warm(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	return runCosim(env, d), nil
}

// verify runs the checks that look at a whole phase: the served
// workload's cold re-runs and, for the default seed, the result digest.
// A failing check marks the jobs it covers failed.
func (b *bench) verify(ctx context.Context, p *phase) {
	if b.w.cosim {
		n, err := checkColdReruns(ctx, p)
		b.report["cold_reruns_checked"] = n
		if err != nil {
			p.records[0].err = err
		}
	}
	dg, ok := digest(b.w, p)
	b.report["digest"] = dg
	if b.seed != defaultSeed {
		return
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		p.records[0].err = fmt.Errorf("golden.json: %w", err)
		return
	}
	want := golden[b.w.name]
	b.report["digest_checked"] = true
	if !ok || dg != want {
		n := len(b.w.round)
		if b.w.cosim {
			n = len(p.records)
		}
		for i := 0; i < n && i < len(p.records); i++ {
			p.records[i].err = fmt.Errorf("result digest %q, golden %q", dg, want)
		}
	}
}

func (b *bench) endToEnd(ctx context.Context) (*result, error) {
	b.report = map[string]any{"workload": b.w.name, "why": b.w.why, "trace": 0}
	if err := b.setup(ctx); err != nil {
		return nil, err
	}
	defer b.close()
	p, err := b.phase(ctx, b.d, false)
	if err != nil {
		return nil, err
	}
	b.verify(ctx, p)

	var durs []float64
	for i := range p.records {
		durs = append(durs, ms(p.records[i].dur))
	}
	jobsPerS, wscPerS, windows := rates(b.w, p)
	b.report["jobs"] = p.jobs()
	b.report["window_s"] = p.window.Seconds()
	b.report["rate_windows"] = windows
	b.report["setup_runs_s"] = b.setupS
	// The tail is the highest percentile with ten samples beyond it.
	tail := map[string]any{"samples": len(durs)}
	if q := tailQuantile(len(durs)); q > 0 {
		tail["quantile"] = q
		tail["job_ms"] = quantile(durs, q)
	}
	b.report["tail"] = tail
	if !b.w.cosim {
		// Per round position, so a workload's job mix stays visible.
		perSpec := make([]float64, len(b.w.round))
		for k := range perSpec {
			var ks []float64
			for i := range p.records {
				if p.records[i].key == k {
					ks = append(ks, ms(p.records[i].dur))
				}
			}
			perSpec[k] = median(ks)
		}
		b.report["job_ms_p50_by_spec"] = perSpec
	}
	b.addErrors(p)
	return &result{
		Correct:   p.failed() == 0,
		Attempted: p.jobs(),
		Failed:    p.failed(),
		Metrics: map[string]metric{
			"setup_s":     {median(b.setupS), "s"},
			"wsc_per_s":   {wscPerS, "wsc/s"},
			"jobs_per_s":  {jobsPerS, "1/s"},
			"job_ms_p50":  {median(durs), "ms"},
			"peak_rss_mb": {peakRSSMB(), "MiB"},
		},
	}, nil
}

func (b *bench) addErrors(phases ...*phase) {
	var errs []string
	for _, p := range phases {
		for i := range p.records {
			if err := p.records[i].err; err != nil && len(errs) < 5 {
				errs = append(errs, err.Error())
			}
		}
	}
	if len(errs) > 0 {
		b.report["errors"] = errs
	}
}

// perLayer is the traced run: a third of the window untraced (the
// baseline of the tracing overhead, and the allocation counters), a
// third traced, a third replaying the workload's engines.
func (b *bench) perLayer(ctx context.Context) (*result, error) {
	b.report = map[string]any{"workload": b.w.name, "why": b.w.why, "trace": 1}
	if err := b.setup(ctx); err != nil {
		return nil, err
	}
	defer b.close()
	lv := layerValues{}
	lv.setMedian("netcache.tables_cold_us", b.tablesCold)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pa, err := b.phase(ctx, b.d/3, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	b.verify(ctx, pa)
	if n := pa.jobs(); n > 0 {
		lv["runtime.alloc_mb_per_job"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / (1 << 20)
		// Less the collection the phase forces before it starts.
		lv["runtime.gc_per_job"] = float64(m1.NumGC-m0.NumGC-1) / float64(n)
	}

	pb, err := b.phase(ctx, b.d/3, true)
	if err != nil {
		return nil, err
	}
	// Tracing is observation-only: the traced stretch must reproduce the
	// untraced one's result bytes.
	da, _ := digest(b.w, pa)
	if db, ok := digest(b.w, pb); !ok || db != da {
		pb.records[0].err = fmt.Errorf("traced results digest %q, untraced %q", db, da)
	}
	lv.fromSpans(pb)
	lv.fromRecords(pb, !b.w.cosim)
	untraced, traced := jobP50(pa), jobP50(pb)
	lv["trace.untraced_job_ms_p50"] = untraced
	lv["trace.overhead_ms"] = traced - untraced

	end := time.Now().Add(b.d / 3)
	var replayErr error
	switch b.w.name {
	case "sweep-4k":
		replayErr = replaySweep(b.w, b.direct.cache, end, lv)
	case "loop-churn":
		replayErr = replayLoop(b.w, b.direct.cache, end, lv)
	case "cosim-estimate":
		replayErr = replayCosim(b.seed, b.cosim.srv.Cache(), end, lv)
	case "explain-hotspot":
		replayErr = replayExplain(b.w, b.direct.cache, end, lv)
	}

	metrics := map[string]metric{}
	var na []string
	for _, m := range perLayer {
		v, ok := lv[m.name]
		if !ok {
			na = append(na, m.name)
		}
		metrics[m.name] = metric{orZero(v), m.unit}
	}
	b.report["na"] = na
	b.report["jobs_untraced"], b.report["jobs_traced"] = pa.jobs(), pb.jobs()
	b.addErrors(pa, pb)
	attempted := pa.jobs() + pb.jobs() + 1
	failed := pa.failed() + pb.failed()
	if replayErr != nil {
		failed++
		b.report["replay_error"] = replayErr.Error()
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func jobP50(p *phase) float64 {
	var durs []float64
	for i := range p.records {
		durs = append(durs, ms(p.records[i].dur))
	}
	return median(durs)
}
