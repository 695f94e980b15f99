package main

import (
	"fmt"
	"time"

	"edn"
	"edn/internal/anatomy"
	"edn/internal/cliutil"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/simulate"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// perLayer lists every per-layer metric the traced run prints, by
// module. A metric whose layer the workload does not exercise prints 0
// and is named in the report line's "na" list. BENCHMARK.md records
// which end-to-end metric each should move, and on which workload.
var perLayer = []struct{ name, unit string }{
	{"jobspec.validate_us", "us"},
	{"netcache.hit_ratio", "ratio"},
	{"netcache.lookup_hit_us", "us"},
	{"netcache.tables_cold_us", "us"},
	{"netcache.masks_cold_us", "us"},
	{"traffic.generate_ns_per_cycle", "ns"},
	{"queuesim.new_us", "us"},
	{"queuesim.cycle_us", "us"},
	{"queuesim.ns_per_wsc", "ns"},
	{"queuesim.update_faults_us", "us"},
	{"dilatedsim.new_us", "us"},
	{"dilatedsim.cycle_us", "us"},
	{"dilatedsim.ns_per_wsc", "ns"},
	{"dilatedsim.update_faults_us", "us"},
	{"closedloop.self_ns_per_cycle", "ns"},
	{"closedloop.fabric_share", "ratio"},
	{"closedloop.retry_ratio", "ratio"},
	{"lifecycle.step_us", "us"},
	{"simulate.shard_ms_p50", "ms"},
	{"simulate.shard_imbalance", "ratio"},
	{"simulate.merge_us", "us"},
	{"simulate.parallel_eff", "ratio"},
	{"simulate.observe_ms", "ms"},
	{"simulate.observe_share", "ratio"},
	{"probe.cycle_ns_attached", "ns"},
	{"anatomy.cycle_ns_attached", "ns"},
	{"anatomy.report_us", "us"},
	{"edn.serialize_us", "us"},
	{"edn.result_kb", "KiB"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.execute_ms_p50", "ms"},
	{"serve.overhead_us_p50", "us"},
	{"serve.busy_frac", "ratio"},
	{"runtime.alloc_mb_per_job", "MiB"},
	{"runtime.gc_per_job", "count"},
	{"trace.untraced_job_ms_p50", "ms"},
	{"trace.overhead_ms", "ms"},
}

// layerValues collects measured per-layer values; a metric never set is
// n/a for the workload.
type layerValues map[string]float64

// setMedian records the median of xs, leaving the metric n/a when the
// workload produced no samples.
func (lv layerValues) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		lv[name] = median(xs)
	}
}

// fromSpans reads the traced phase's span trees: validation, cache
// lookups by verdict, the sharded harness's shard/merge/observe stages
// per point, and (served jobs) queue wait, execution and serialization.
func (lv layerValues) fromSpans(p *phase) {
	var validate, hit, maskCold, shard, merge, imbalance, eff, observe, obsShare []float64
	var queueWait, execute, overhead, serialize []float64
	var busyNS float64
	for i := range p.records {
		rec := &p.records[i]
		if rec.spans == nil || rec.err != nil {
			continue
		}
		var qw int64
		rec.spans.Walk(func(_ int, s *edn.Span) {
			d := time.Duration(s.DurationNS)
			switch s.Name {
			case "validate":
				validate = append(validate, us(d))
			case "edn_tables", "dilated_tables", "fault_masks":
				switch s.Attrs["cache"] {
				case "hit":
					hit = append(hit, us(d))
				case "cold":
					if s.Name == "fault_masks" {
						maskCold = append(maskCold, us(d))
					}
				}
			case "point":
				var shards []float64
				for _, c := range s.Children {
					cd := time.Duration(c.DurationNS)
					switch c.Name {
					case "shard":
						shards = append(shards, ms(cd))
						shard = append(shard, ms(cd))
					case "merge":
						merge = append(merge, us(cd))
					case "observe":
						observe = append(observe, ms(cd))
						obsShare = append(obsShare, float64(c.DurationNS)/float64(s.DurationNS))
					}
				}
				if len(shards) > 0 {
					mean := sum(shards) / float64(len(shards))
					mx := 0.0
					for _, x := range shards {
						mx = max(mx, x)
					}
					imbalance = append(imbalance, mx/mean)
					eff = append(eff, sum(shards)/(float64(len(shards))*ms(d)))
				}
			case "queue_wait":
				qw = s.DurationNS
				queueWait = append(queueWait, us(d))
			case "execute":
				execute = append(execute, ms(d))
				if p.workers > 0 {
					overhead = append(overhead, us(rec.dur-d))
				}
			case "serialize":
				serialize = append(serialize, us(d))
			}
		})
		if p.workers > 0 {
			busyNS += float64(rec.spans.DurationNS - qw)
		}
	}
	lv.setMedian("jobspec.validate_us", validate)
	lv.setMedian("netcache.lookup_hit_us", hit)
	lv.setMedian("netcache.masks_cold_us", maskCold)
	lv.setMedian("simulate.shard_ms_p50", shard)
	lv.setMedian("simulate.shard_imbalance", imbalance)
	lv.setMedian("simulate.merge_us", merge)
	lv.setMedian("simulate.parallel_eff", eff)
	lv.setMedian("simulate.observe_ms", observe)
	lv.setMedian("simulate.observe_share", obsShare)
	if p.workers > 0 {
		lv.setMedian("serve.queue_wait_us_p50", queueWait)
		lv.setMedian("serve.execute_ms_p50", execute)
		lv.setMedian("serve.overhead_us_p50", overhead)
		lv.setMedian("edn.serialize_us", serialize)
		lv["serve.busy_frac"] = busyNS / (float64(p.workers) * float64(p.window.Nanoseconds()))
	}
	if p.lookups > 0 {
		lv["netcache.hit_ratio"] = float64(p.hits) / float64(p.lookups)
	}
}

// fromRecords reads what the caller sees of every job: result size,
// the caller's own serialization time (direct workloads), and the
// closed-loop retry ratio from the results' request ledgers.
func (lv layerValues) fromRecords(p *phase, direct bool) {
	var kb, ser []float64
	var retries, issued int64
	for i := range p.records {
		rec := &p.records[i]
		if rec.err != nil {
			continue
		}
		retries += rec.retries
		issued += rec.issued
		kb = append(kb, float64(rec.bytes)/1024)
		if direct {
			ser = append(ser, us(rec.serialize))
		}
	}
	lv.setMedian("edn.result_kb", kb)
	lv.setMedian("edn.serialize_us", ser)
	if issued > 0 {
		lv["closedloop.retry_ratio"] = float64(retries) / float64(issued)
	}
}

// --- replays: the workload's engines driven from the benchmark's own
// code, timing each call into a module's public functions. Each replay
// loops until end, and runs at least once. ----------------------------

// queueOptions lowers a spec's queue section the way edn.Run does.
func queueOptions(q *edn.QueueSpec) (queuesim.Options, error) {
	var o queuesim.Options
	if q == nil {
		return o, nil
	}
	o.Depth = q.Depth
	if q.Policy != "" {
		p, err := cliutil.ParsePolicy(q.Policy)
		if err != nil {
			return o, err
		}
		o.Policy = p
	}
	return o, nil
}

// pattern builds the spec's traffic source at load, as edn.Run does.
func pattern(t *edn.TrafficSpec, load float64, rng *xrand.Rand) (traffic.Pattern, error) {
	if t == nil {
		return traffic.Uniform{Rate: load, Rng: rng}, nil
	}
	switch t.Kind {
	case "", "uniform":
		return traffic.Uniform{Rate: load, Rng: rng}, nil
	case "bursty":
		return simulate.BurstyLoad(t.MeanBurst)(load, rng), nil
	case "moving-hotspot":
		return &traffic.MovingHotSpot{Rate: load, Fraction: t.HotFraction, Hot: t.Hot,
			Period: t.Period, Stride: t.Stride, Rng: rng}, nil
	}
	return nil, fmt.Errorf("no replay for traffic kind %q", t.Kind)
}

// engineSample accumulates one engine's replayed cost.
type engineSample struct {
	news     []float64 // µs per New
	cycleNS  float64
	cycles   int64
	wscs     int64
	genNS    float64
	genCalls int64
}

func (e *engineSample) record(lv layerValues, prefix string) {
	lv.setMedian(prefix+".new_us", e.news)
	if e.cycles > 0 {
		lv[prefix+".cycle_us"] = e.cycleNS / float64(e.cycles) / 1e3
		lv[prefix+".ns_per_wsc"] = e.cycleNS / float64(e.wscs)
	}
	if e.genCalls > 0 {
		lv["traffic.generate_ns_per_cycle"] = e.genNS / float64(e.genCalls)
	}
}

// checkTotals asserts a packet engine's exact conservation ledger.
func checkTotals(t queuesim.Totals, queued int64) error {
	if t.Injected != t.Refused+t.Delivered+t.Dropped+t.Stranded+queued {
		return fmt.Errorf("packet ledger broken: injected %d != refused %d + delivered %d + dropped %d + stranded %d + queued %d",
			t.Injected, t.Refused, t.Delivered, t.Dropped, t.Stranded, queued)
	}
	return nil
}

// replayOpenLoop drives one spec's EDN engine for warmup + cycles at
// load, timing construction, traffic generation and Cycle separately.
// masks, when non-nil, degrade the engine as the spec's fault section
// does.
func replayOpenLoop(spec edn.JobSpec, load float64, seed uint64, cache *edn.GeometryCache, masks *faults.Masks, e *engineSample) error {
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return err
	}
	qo, err := queueOptions(spec.Queue)
	if err != nil {
		return err
	}
	if qo.Tables, _, err = cache.Tables(cfg); err != nil {
		return err
	}
	qo.Faults = masks
	t0 := time.Now()
	net, err := queuesim.New(cfg, qo)
	if err != nil {
		return err
	}
	e.news = append(e.news, us(time.Since(t0)))
	pat, err := pattern(spec.Traffic, load, xrand.New(seed))
	if err != nil {
		return err
	}
	gen := pat.(traffic.IntoGenerator)
	dest := make([]int, cfg.Inputs())
	n := spec.Sim.Warmup + spec.Sim.Cycles
	for c := 0; c < n; c++ {
		g0 := time.Now()
		gen.GenerateInto(dest, cfg.Outputs())
		c0 := time.Now()
		if _, err := net.Cycle(dest); err != nil {
			return err
		}
		c1 := time.Now()
		e.genNS += float64(c0.Sub(g0).Nanoseconds())
		e.cycleNS += float64(c1.Sub(c0).Nanoseconds())
	}
	e.genCalls += int64(n)
	e.cycles += int64(n)
	e.wscs += int64(n) * cfg.WireCount()
	return checkTotals(net.Totals(), net.Queued())
}

// replaySweep replays the round's specs at their middle load.
func replaySweep(w *workload, cache *edn.GeometryCache, end time.Time, lv layerValues) error {
	var e engineSample
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		spec := w.round[i%len(w.round)]
		if err := replayOpenLoop(spec, spec.Loads[len(spec.Loads)/2], spec.Sim.Seed+uint64(i), cache, nil, &e); err != nil {
			return err
		}
	}
	e.record(lv, "queuesim")
	return nil
}

// replayCosim replays client 0's request stream: one engine per
// request, degraded by the request's cached fault masks, as the served
// estimate and latency jobs build them.
func replayCosim(seed uint64, cache *edn.GeometryCache, end time.Time, lv layerValues) error {
	var e engineSample
	s := newCosimStream(seed, 0)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		spec, _ := s.next()
		cfg, err := spec.Geometry.Compile()
		if err != nil {
			return err
		}
		m, _, err := cache.Masks(cfg, faults.WireFaults, spec.Faults.Fraction, spec.Faults.Seed)
		if err != nil {
			return err
		}
		if err := replayOpenLoop(spec, spec.Load, spec.Sim.Seed, cache, m, &e); err != nil {
			return err
		}
	}
	e.record(lv, "queuesim")
	return nil
}

// replayExplain runs four engines of the round's first spec side by
// side in chunks — bare, probe attached, and two with anatomy attached
// — so the attached-minus-bare cycle costs share machine conditions,
// then times the anatomy Report and Merge.
func replayExplain(w *workload, cache *edn.GeometryCache, end time.Time, lv layerValues) error {
	spec := w.round[0]
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return err
	}
	qo, err := queueOptions(spec.Queue)
	if err != nil {
		return err
	}
	if qo.Tables, _, err = cache.Tables(cfg); err != nil {
		return err
	}
	load := spec.Loads[0]
	const engines = 4 // bare, probe, anatomy A, anatomy B
	var nets [engines]*queuesim.Network
	var gens [engines]traffic.IntoGenerator
	var dests [engines][]int
	var ns [engines]float64
	var e engineSample
	anats := [2]*anatomy.Collector{}
	for k := range nets {
		t0 := time.Now()
		if nets[k], err = queuesim.New(cfg, qo); err != nil {
			return err
		}
		e.news = append(e.news, us(time.Since(t0)))
		pat, err := pattern(spec.Traffic, load, xrand.New(spec.Sim.Seed))
		if err != nil {
			return err
		}
		gens[k] = pat.(traffic.IntoGenerator)
		dests[k] = make([]int, cfg.Inputs())
	}
	nets[1].SetProbe(probe.New(probe.Options{SampleEvery: spec.Probe.SampleEvery, Seed: spec.Probe.Seed, BinCycles: 16}))
	for a := range anats {
		anats[a] = anatomy.New(anatomy.Options{TopK: spec.Explain.TopK})
		nets[2+a].SetAnatomy(anats[a])
	}
	const chunk = 32
	cycles := 0
	for cycles == 0 || time.Now().Before(end) {
		for k := range nets {
			var t time.Duration
			for c := 0; c < chunk; c++ {
				gens[k].GenerateInto(dests[k], cfg.Outputs())
				t0 := time.Now()
				if _, err := nets[k].Cycle(dests[k]); err != nil {
					return err
				}
				t += time.Since(t0)
			}
			ns[k] += float64(t.Nanoseconds())
		}
		cycles += chunk
	}
	for k := range nets {
		if err := checkTotals(nets[k].Totals(), nets[k].Queued()); err != nil {
			return err
		}
	}
	e.cycleNS, e.cycles, e.wscs = ns[0], int64(cycles), int64(cycles)*cfg.WireCount()
	e.record(lv, "queuesim")
	bare := ns[0] / float64(cycles)
	lv["probe.cycle_ns_attached"] = ns[1]/float64(cycles) - bare
	lv["anatomy.cycle_ns_attached"] = (ns[2]+ns[3])/2/float64(cycles) - bare
	t0 := time.Now()
	ra := anats[0].Report()
	rb := anats[1].Report()
	if err := ra.Merge(rb); err != nil {
		return err
	}
	lv["anatomy.report_us"] = us(time.Since(t0)) / 2
	// The generator's own cost, measured alone on a fresh source.
	pat, err := pattern(spec.Traffic, load, xrand.New(spec.Sim.Seed+1))
	if err != nil {
		return err
	}
	gen := pat.(traffic.IntoGenerator)
	dest := make([]int, cfg.Inputs())
	t0 = time.Now()
	for c := 0; c < cycles; c++ {
		gen.GenerateInto(dest, cfg.Outputs())
	}
	lv["traffic.generate_ns_per_cycle"] = float64(time.Since(t0).Nanoseconds()) / float64(cycles)
	return nil
}

// timedEngine decorates a closedloop.Engine, summing the wall time of
// its Cycle calls: the fabric's share of each Loop.Cycle.
type timedEngine struct {
	closedloop.Engine
	ns *float64
}

func (t timedEngine) Cycle(dest []int) (queuesim.CycleStats, error) {
	t0 := time.Now()
	cs, err := t.Engine.Cycle(dest)
	*t.ns += float64(time.Since(t0).Nanoseconds())
	return cs, err
}

// loopSample accumulates the closed-loop replays of one engine family.
type loopSample struct {
	engineSample
	updates []float64 // µs per UpdateFaults
	steps   []float64 // µs per fault-process step plus mask compile
}

// loopTotals is what the closed-loop replays add up across both
// engines: orchestrator and fabric time, and loop cycles.
type loopTotals struct {
	loopNS, fabricNS float64
	cycles           int64
	steps            []float64
}

// replayLoop replays one shard of each closed-loop lifetime spec of the
// round — fault processes stepped and compiled per epoch, masks swapped
// into both running fabrics, the loop advanced EpochCycles cycles — with
// every call timed and the loop's full conservation invariant asserted
// at each epoch.
func replayLoop(w *workload, cache *edn.GeometryCache, end time.Time, lv layerValues) error {
	var ednS, dilS loopSample
	var tot loopTotals
	for i := 0; i < len(w.round) || time.Now().Before(end); i++ {
		spec := w.round[i%len(w.round)]
		s := &ednS
		if spec.Engine == edn.EngineDilated {
			s = &dilS
		}
		if err := replayLoopShard(spec, spec.Sim.Seed+uint64(i), cache, s, &tot); err != nil {
			return err
		}
	}
	ednS.record(lv, "queuesim")
	dilS.record(lv, "dilatedsim")
	lv.setMedian("queuesim.update_faults_us", ednS.updates)
	lv.setMedian("dilatedsim.update_faults_us", dilS.updates)
	lv.setMedian("lifecycle.step_us", append(ednS.steps, dilS.steps...))
	if tot.cycles > 0 {
		lv["closedloop.self_ns_per_cycle"] = (tot.loopNS - tot.fabricNS) / float64(tot.cycles)
		lv["closedloop.fabric_share"] = tot.fabricNS / tot.loopNS
	}
	return nil
}

// faultSource is one fabric's per-epoch fault process, whichever the
// engine: step advances the process and compiles its masks, swap
// installs them in the running engine, reach reports the reachable
// outputs under them.
type faultSource struct {
	step  func() error
	swap  func() error
	reach func(live []bool)
}

func replayLoopShard(spec edn.JobSpec, seed uint64, cache *edn.GeometryCache, s *loopSample, tot *loopTotals) error {
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return err
	}
	lt := spec.Lifetime
	mode, err := faults.ParseMode(lt.Mode)
	if err != nil {
		return err
	}
	lspec := lifecycle.Spec{Mode: mode, MTBF: lt.MTBF, MTTR: lt.MTTR, Timing: lifecycle.Exponential}
	lo, err := loopOptions(spec.Loop)
	if err != nil {
		return err
	}
	lo.Rate, lo.Seed = lt.Load, seed
	qo, err := queueOptions(spec.Queue)
	if err != nil {
		return err
	}
	procRoot := xrand.New(seed ^ 0x9e37)
	var engines [2]closedloop.Engine
	var sources [2]faultSource
	var inputs, outputs int
	var wires int64
	if spec.Engine == edn.EngineDilated {
		dcfg, err := dilated.Counterpart(cfg)
		if err != nil {
			return err
		}
		do := dilatedsim.Options{Depth: qo.Depth, Policy: qo.Policy}
		if do.Tables, _, err = cache.DilatedTables(dcfg); err != nil {
			return err
		}
		for k := range engines {
			t0 := time.Now()
			net, err := dilatedsim.New(dcfg, do)
			if err != nil {
				return err
			}
			s.news = append(s.news, us(time.Since(t0)))
			churn, err := dilatedsim.NewChurn(dcfg, lt.MTBF, lt.MTTR, lifecycle.Exponential, procRoot.Split())
			if err != nil {
				return err
			}
			var m *dilatedsim.Masks
			engines[k] = net
			sources[k] = faultSource{
				step:  func() (err error) { m, err = dilatedsim.Compile(dcfg, churn.Step()); return err },
				swap:  func() error { return net.UpdateFaults(m) },
				reach: func(live []bool) { m.ReachableOutputsInto(live) },
			}
		}
		inputs, outputs, wires = dcfg.Ports(), dcfg.Ports(), dcfg.WireCount()
	} else {
		if qo.Tables, _, err = cache.Tables(cfg); err != nil {
			return err
		}
		for k := range engines {
			t0 := time.Now()
			net, err := queuesim.New(cfg, qo)
			if err != nil {
				return err
			}
			s.news = append(s.news, us(time.Since(t0)))
			proc, err := lifecycle.New(cfg, lspec, procRoot.Split())
			if err != nil {
				return err
			}
			var m *faults.Masks
			engines[k] = net
			sources[k] = faultSource{
				step:  func() (err error) { m, err = faults.Compile(cfg, proc.Step()); return err },
				swap:  func() error { return net.UpdateFaults(m) },
				reach: func(live []bool) { m.ReachableOutputsInto(live) },
			}
		}
		inputs, outputs, wires = cfg.Inputs(), cfg.Outputs(), cfg.WireCount()
	}
	var fabricNS, loopNS float64
	loop, err := closedloop.New(timedEngine{engines[0], &fabricNS}, timedEngine{engines[1], &fabricNS}, inputs, outputs, lo)
	if err != nil {
		return err
	}
	live := make([]bool, outputs)
	for e := 0; e < lt.Epochs; e++ {
		for k := range sources {
			t0 := time.Now()
			if err := sources[k].step(); err != nil {
				return err
			}
			t1 := time.Now()
			if err := sources[k].swap(); err != nil {
				return err
			}
			s.steps = append(s.steps, us(t1.Sub(t0)))
			s.updates = append(s.updates, us(time.Since(t1)))
		}
		// Sources steer around memory ports the forward fabric lost.
		sources[0].reach(live)
		if err := loop.SetLiveOutputs(live); err != nil {
			return err
		}
		t0 := time.Now()
		for c := 0; c < lt.EpochCycles; c++ {
			if _, err := loop.Cycle(); err != nil {
				return err
			}
		}
		loopNS += float64(time.Since(t0).Nanoseconds())
		if err := loop.CheckConservation(); err != nil {
			return fmt.Errorf("replayed epoch %d: %w", e, err)
		}
	}
	n := int64(lt.Epochs * lt.EpochCycles)
	s.cycleNS += fabricNS
	s.cycles += 2 * n
	s.wscs += 2 * n * wires
	tot.loopNS += loopNS
	tot.fabricNS += fabricNS
	tot.cycles += n
	return nil
}

// loopOptions lowers a spec's closed-loop section the way edn.Run does.
func loopOptions(c *edn.ClosedLoopSpec) (closedloop.Options, error) {
	if c == nil {
		return closedloop.Options{}, nil
	}
	lo := closedloop.Options{
		Window: c.Window, ServiceCycles: c.ServiceCycles, Timeout: c.Timeout,
		MaxAttempts: c.MaxAttempts, BackoffBase: c.BackoffBase, BackoffCap: c.BackoffCap,
		MaxBacklog: c.MaxBacklog, SLA: closedloop.SLA{Deadline: c.SLADeadline, Zero: c.SLAZero},
	}
	if c.Retry != "" {
		r, err := closedloop.ParseRetryPolicy(c.Retry)
		if err != nil {
			return lo, err
		}
		lo.Retry = r
	}
	return lo, nil
}
