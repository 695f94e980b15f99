// Package simulate is the measurement side of the repository. The paper
// evaluates EDNs purely with closed forms; this package cross-checks
// them with discrete-event runs under the identical switch semantics:
//
//   - Monte-Carlo acceptance (MeasurePA and friends) and the
//     multipass resubmission loop, over the packet engine's depth-0
//     sweep (Drop for the memoryless Section 3.2 cycle, Backpressure
//     for retained requests), so PA runs on the same router as every
//     other harness.
//   - Queueing, degradation, lifetime and closed-loop harnesses over the
//     one buffered packet engine of internal/queuesim. Each takes a Net
//     — an EDN or the d-dilated delta that spends the same wire budget
//     on link replication — so one harness measures both sides of the
//     paper's equal-redundancy comparison, and the same Options drive
//     both networks with identical per-input traffic replays.
//
// Every sharded measurement runs through one skeleton: runShards is the
// only scheduler (it splits the cycle budget, runs the shards on one
// goroutine each and reports each as a "shard" stage), a point's shard
// seeds derive from (Options.Seed, point index) in one place, and its
// shards merge exactly. A probe or an anatomy collector rides on shard
// 0 alone (Options.instrument): shard 0's seed does not depend on the
// shard count, and once its measured window closes it keeps cycling
// to the point's full budget for the instruments, so traces and
// reports do not depend on the shard count or GOMAXPROCS, and the
// measured numbers never see an instrument. Lifetimes keep per-shard
// heat probes instead, one heat bin per epoch.
package simulate

import (
	"fmt"
	"time"

	"edn/internal/anatomy"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// Options configures a measurement run.
type Options struct {
	Cycles  int                      // number of network cycles to simulate (default 1000)
	Warmup  int                      // cycles discarded before measuring (default 0)
	Seed    uint64                   // RNG seed for the traffic source (default 1)
	Factory switchfab.ArbiterFactory // switch arbitration (default: paper's priority rule)

	// Probe, when non-nil, attaches a flight-recorder probe to the
	// measurement and fills the result's Observed report: sampled packet
	// traces plus per-stage heat series over the measurement window.
	// A sharded point attaches it to shard 0 alone, which runs on past
	// its measured window to the point's full cycle budget for the
	// probe (see instrument); lifetime sweeps probe every shard, one
	// heat bin per epoch. The measured results are bit-identical with
	// and without a probe.
	Probe *probe.Options

	// Anatomy, when non-nil, attaches a latency-anatomy collector to the
	// measurement: per-stage wait/block/service attribution, switch
	// blame, congestion trees and flow breakdowns (plus the five-way
	// request split for closed loops), delivered through OnAnatomy.
	// Like Probe, a sharded point attaches it to shard 0 alone, under
	// the point's first shard seed and through the full cycle budget,
	// so the measured results are bit-identical with and without it and
	// the report is invariant to the shard count and GOMAXPROCS.
	Anatomy *anatomy.Options

	// OnAnatomy receives each measured point's anatomy report when
	// Anatomy is set: once per point. Sharded points call it with
	// shard 0's report, on the caller's goroutine after the merge;
	// MeasureLatency calls it when its run completes.
	OnAnatomy func(*anatomy.Report)

	// OnStage, when non-nil, observes the coarse execution stages of a
	// sharded measurement: one "shard" event per shard run from
	// runShards (shard index, cycle share) as it completes, one "merge"
	// for the exact-merge step, then one "observe" when Probe or
	// Anatomy is set, filed after the merge with the full cycle budget:
	// shard 0's instrumented run, from its start to the end of its
	// continuation past the measured window, so it spans the same run
	// as shard 0's "shard" event. Shard events fire concurrently from
	// the shard goroutines; merge and observe fire on the caller's
	// goroutine. Observation-only, like Probe: set or nil, the measured
	// results are bit-identical — the serve layer feeds it into a
	// job's span tree.
	OnStage StageTimer
}

// stage reports one completed execution stage that began at start.
func (o Options) stage(name string, shard, cycles int, start time.Time) {
	if o.OnStage != nil {
		o.OnStage(name, shard, cycles, start, time.Since(start))
	}
}

// bare returns the options of one shard run: cycles long, with neither
// a probe nor an anatomy collector attached.
func (o Options) bare(cycles int) Options {
	o.Cycles, o.Probe, o.Anatomy = cycles, nil, nil
	return o
}

// instrument gives a sharded point's probe and anatomy collector to
// shard 0. The shard function it returns runs run(w, so, budget) for
// shard w with bare options cycles long and a budget of its cycles,
// except shard 0's, which keep o's instruments and take o.Cycles, the
// point's full budget: run measures the window of so.Cycles cycles and
// then keeps cycling to budget before it reads the instruments. Shard
// 0's seed does not depend on the shard count, so that run is the same
// instrumented run at any shard count, and traces and the anatomy
// report are pure functions of Options. finish, called on the caller's
// goroutine after the merge, delivers shard 0's anatomy report to
// OnAnatomy and files the "observe" stage with shard 0's start and
// duration.
func (o Options) instrument(run func(w int, so Options, budget int) error) (shard func(w, cycles int) error, finish func()) {
	observed := o.Probe != nil || o.Anatomy != nil
	var anat *anatomy.Report
	var start time.Time
	var took time.Duration
	shard = func(w, cycles int) error {
		so := o.bare(cycles)
		if w != 0 || !observed {
			return run(w, so, cycles)
		}
		so.Probe, so.Anatomy = o.Probe, o.Anatomy
		if o.OnAnatomy != nil {
			so.OnAnatomy = func(r *anatomy.Report) { anat = r }
		}
		start = time.Now()
		err := run(w, so, o.Cycles)
		took = time.Since(start)
		return err
	}
	finish = func() {
		if anat != nil {
			o.OnAnatomy(anat)
		}
		if observed && o.OnStage != nil {
			o.OnStage("observe", -1, o.Cycles, start, took)
		}
	}
	return shard, finish
}

// trafficStep returns pattern's per-cycle request source: one vector,
// refilled in place every cycle, so steady-state loops stay
// allocation-free.
func trafficStep(pattern traffic.Pattern, inputs, outputs int) func() []int {
	dest := make([]int, inputs)
	return func() []int {
		pattern.GenerateInto(dest, outputs)
		return dest
	}
}

// StageTimer receives one completed execution stage: its name, the
// shard index (-1 for whole-point stages like merge), the stage's cycle
// share (0 when not meaningful), and its wall-clock start and duration.
type StageTimer func(stage string, shard, cycles int, start time.Time, d time.Duration)

// newProbe instantiates a measurement probe: the zero BinCycles means
// "split the observed cycles across the configured bins", which is the
// natural default for a one-shot run of measCycles cycles.
func newProbe(po *probe.Options, measCycles int) *probe.Probe {
	if po == nil {
		return nil
	}
	p := *po
	bins := p.Bins
	if bins <= 0 {
		bins = 64
	}
	if p.BinCycles <= 0 {
		p.BinCycles = (measCycles + bins - 1) / bins
		if p.BinCycles <= 0 {
			p.BinCycles = 1
		}
	}
	return probe.New(p)
}

func (o Options) withDefaults() Options {
	if o.Cycles <= 0 {
		o.Cycles = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result aggregates a measurement run.
type Result struct {
	Config  topology.Config
	Pattern string
	Cycles  int
	// PA is the measured probability of acceptance: total delivered over
	// total offered.
	PA float64
	// PACI is the 95% confidence half-width of the per-cycle PA mean.
	PACI float64
	// Bandwidth is the mean number of requests delivered per cycle.
	Bandwidth float64
	// OfferedRate is the measured per-input request probability.
	OfferedRate float64
	// BlockedPerStage[s-1] is the total number of requests dropped at
	// stage s across the run.
	BlockedPerStage []int

	// Observed carries the flight-recorder report when Options.Probe
	// was set: sampled request traces and per-stage heat series over
	// the measurement window.
	Observed *probe.Report
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%v %s: PA=%.4f (+-%.4f), BW=%.1f req/cycle over %d cycles",
		r.Config, r.Pattern, r.PA, r.PACI, r.Bandwidth, r.Cycles)
}

// MeasurePA runs pattern through the network for the configured number of
// cycles and reports acceptance statistics. Fresh requests are drawn each
// cycle; rejected requests are discarded, matching the Section 3.2
// assumption that blocked requests do not influence later cycles — the
// packet engine's depth-0 Drop corner, measured on MeasureLatency's
// window loop.
//
// The steady-state loop is allocation-free: the pattern refills one
// request vector in place every cycle, and the engine reuses its own
// scratch. Per-stage blocking is the engine's per-stage drop count
// over the measurement window.
func MeasurePA(cfg topology.Config, pattern traffic.Pattern, opts Options) (Result, error) {
	res, _, err := measurePA(cfg, pattern, opts)
	return res, err
}

// measurePA is MeasurePA plus the window's exact injected-packet count.
func measurePA(cfg topology.Config, pattern traffic.Pattern, opts Options) (Result, int64, error) {
	opts = opts.withDefaults()
	net, err := queuesim.New(cfg, queuesim.Options{Policy: queuesim.Drop, Factory: opts.Factory})
	if err != nil {
		return Result{}, 0, err
	}
	var paAcc stats.Accumulator
	warm := make([]int64, cfg.Stages()) // per-stage drops before the window
	win := LatencyResult{Cycles: opts.Cycles}
	err = measurePacketEngine(net, cfg.Inputs(), cfg.Outputs(), pattern, opts, opts.Cycles, &win, func(cycle int, cs queuesim.CycleStats) {
		switch {
		case cycle == opts.Warmup-1:
			warm = net.DroppedPerStage()
		case cycle >= opts.Warmup && cs.Injected > 0:
			paAcc.Add(float64(cs.Delivered) / float64(cs.Injected))
		}
	})
	if err != nil {
		return Result{}, 0, err
	}
	res := Result{
		Config:          cfg,
		Pattern:         pattern.Name(),
		Cycles:          opts.Cycles,
		PA:              win.AcceptedFraction,
		PACI:            paAcc.CI95(),
		Bandwidth:       win.Throughput,
		OfferedRate:     win.OfferedRate,
		BlockedPerStage: make([]int, cfg.Stages()),
		Observed:        win.Observed,
	}
	for s, d := range net.DroppedPerStage() {
		res.BlockedPerStage[s] = int(d - warm[s])
	}
	return res, win.Injected, nil
}

// MeasureUniformPA is the common case: Section 3.2 uniform traffic at
// offered rate r.
func MeasureUniformPA(cfg topology.Config, r float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	rng := xrand.New(opts.Seed)
	return MeasurePA(cfg, traffic.Uniform{Rate: r, Rng: rng}, opts)
}

// MeasurePermutationPA measures acceptance under fresh random
// permutations each cycle (the Section 3.2.1 regime).
func MeasurePermutationPA(cfg topology.Config, opts Options) (Result, error) {
	opts = opts.withDefaults()
	rng := xrand.New(opts.Seed)
	return MeasurePA(cfg, &traffic.RandomPermutation{Rng: rng}, opts)
}
