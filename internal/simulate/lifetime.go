package simulate

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"edn/internal/dilated"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// LifetimeOptions configures a lifetime simulation: how long the
// network lives, how its components churn, and under what load it is
// measured.
type LifetimeOptions struct {
	// Epochs is the number of failure/repair epochs simulated. Required.
	Epochs int
	// EpochCycles is the number of network cycles per epoch (default
	// 200) — the dwell time between mask swaps.
	EpochCycles int
	// Spec is the failure/repair process (see internal/lifecycle).
	Spec lifecycle.Spec
	// Load is the offered load per input (default 1: saturation).
	Load float64
	// Threshold is the delivered-bandwidth-per-input floor for the
	// TimeBelowThreshold metric. <= 0 selects half the network's own
	// fault-free analytic bandwidth per input — "degraded to less than
	// half of healthy" (the mean-field recursion for a dilated delta).
	Threshold float64
}

func (o LifetimeOptions) withDefaults(net Net) (LifetimeOptions, error) {
	if o.Epochs <= 0 {
		return o, fmt.Errorf("simulate: lifetime sweep needs a positive epoch count")
	}
	if o.EpochCycles <= 0 {
		o.EpochCycles = 200
	}
	if o.Load <= 0 {
		o.Load = 1
	}
	if o.Threshold <= 0 {
		o.Threshold = net.threshold(o.Load)
	}
	return o, nil
}

// LifetimeResult is the availability-over-time view of one network: the
// per-epoch time series of the quantities a static sweep reports once,
// plus the aggregates that summarize a whole deployment's lifetime.
type LifetimeResult struct {
	Config      topology.Config
	Spec        lifecycle.Spec
	Depth       int
	Policy      queuesim.Policy
	Epochs      int
	EpochCycles int
	Shards      int
	Threshold   float64

	// Per-epoch series, merged exactly across shards (each epoch's
	// value is the mean over shard replays; CI95 available per epoch).
	Bandwidth    *stats.TimeSeries // delivered packets per input per cycle
	Reachable    *stats.TimeSeries // fraction of outputs still reachable
	DeadFraction *stats.TimeSeries // dead fraction of the churned population
	LatencyP99   *stats.TimeSeries // P99 delivery latency within the epoch
	Parked       *stats.TimeSeries // mean packets parked on dead components per cycle

	// Lifetime packet counters over the churned epochs (fault-free
	// warmup excluded), summed across shards. Packets injected near the
	// lifetime's end may still be queued at shutdown, so the counters
	// describe the open-loop measurement window, not a closed ledger.
	Injected  int64
	Refused   int64
	Delivered int64
	Dropped   int64
	Stranded  int64

	// LifetimeBandwidth is the delivered bandwidth per input per cycle
	// averaged over the whole lifetime; DeliveredFraction the fraction
	// of offered packets that were delivered.
	LifetimeBandwidth float64
	DeliveredFraction float64
	// TimeBelowThreshold is the fraction of epochs whose mean bandwidth
	// fell below Threshold.
	TimeBelowThreshold float64
	// RecoveryHalfLife is the mean number of epochs a degradation event
	// (a >10% bandwidth drop) took to recover halfway back; NaN when the
	// lifetime had no such event.
	RecoveryHalfLife float64

	// Observed carries the flight-recorder report when Options.Probe
	// was set: heat series binned one bin per epoch and merged exactly
	// across every shard, plus sampled packet traces from shard 0's
	// replay (the first seed pair does not depend on the shard count,
	// so the trace set is a pure function of Options).
	Observed *probe.Report
}

// String renders the headline numbers.
func (r LifetimeResult) String() string {
	return fmt.Sprintf("%v %v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
		r.Config, r.Spec.Mode, r.Spec.MTBF, r.Spec.MTTR,
		r.LifetimeBandwidth, 100*r.TimeBelowThreshold, r.RecoveryHalfLife)
}

// MarshalJSON encodes the NaN sentinel of RecoveryHalfLife ("no
// degradation event observed") as null, since JSON has no NaN.
func (r LifetimeResult) MarshalJSON() ([]byte, error) {
	type alias LifetimeResult
	aux := struct {
		alias
		RecoveryHalfLife *float64 `json:"RecoveryHalfLife"`
	}{alias: alias(r)}
	if !math.IsNaN(r.RecoveryHalfLife) {
		aux.RecoveryHalfLife = &r.RecoveryHalfLife
	}
	return json.Marshal(aux)
}

// LifetimeSweep simulates an EDN's whole service life: components
// fail and get repaired epoch by epoch (one lifecycle.Process per
// shard), the running engines are re-masked in place via UpdateFaults —
// queue contents, arbiter state and all precomputed tables survive
// every swap, so packets in flight experience the failure exactly as
// deployed hardware would — and every epoch's delivered bandwidth,
// reachability and latency tail are recorded into per-epoch time
// series.
//
// Shards are fully independent lifetimes (own engine, own failure
// story, own traffic stream, seeds derived from opts.Seed) executed in
// parallel and merged exactly per epoch, the run-level pattern of
// SaturationSweep; results are deterministic for a fixed (seed, shards)
// pair. shards <= 0 selects GOMAXPROCS; src nil selects uniform iid
// traffic at lopts.Load.
//
// opts.Warmup cycles run fault-free before the first epoch so the
// series starts from the healthy steady state. Fault processes that
// kill output terminals (switch/mixed churn reaching the crossbars)
// pair naturally with the Drop policy; under Backpressure packets
// addressed to a dead terminal park until the repair arrives (counted
// in the Parked series) — a real operational regime, but one that
// conflates queueing with availability in the bandwidth series.
func LifetimeSweep(n EDN, lopts LifetimeOptions, src LoadPattern, opts Options, shards int) (LifetimeResult, error) {
	m, err := lifetimeSweep(n, lopts, src, opts, shards)
	if err != nil {
		return LifetimeResult{}, err
	}
	return LifetimeResult{
		Config:             n.Config,
		Spec:               m.lopts.Spec,
		Epochs:             m.lopts.Epochs,
		EpochCycles:        m.lopts.EpochCycles,
		Shards:             m.shards,
		Threshold:          m.lopts.Threshold,
		Depth:              n.Queue.Depth,
		Policy:             n.Queue.Policy,
		Bandwidth:          m.bandwidth,
		Reachable:          m.reachable,
		DeadFraction:       m.deadFrac,
		LatencyP99:         m.p99,
		Parked:             m.parked,
		Injected:           m.totals.Injected,
		Refused:            m.totals.Refused,
		Delivered:          m.totals.Delivered,
		Dropped:            m.totals.Dropped,
		Stranded:           m.totals.Stranded,
		LifetimeBandwidth:  m.lifetimeBandwidth,
		DeliveredFraction:  m.deliveredFraction,
		TimeBelowThreshold: m.timeBelowThreshold,
		RecoveryHalfLife:   m.recoveryHalfLife,
		Observed:           m.rep,
	}, nil
}

// lifetimeSweep is the one lifetime harness behind both networks'
// typed entry points: defaults, shard fan-out (runLifetimeFanout, so
// the same Options churn an EDN and its counterpart through identically
// distributed outages under identical per-input traffic replays), the
// per-shard epoch loop and the exact merge.
func lifetimeSweep(net Net, lopts LifetimeOptions, src LoadPattern, opts Options, shards int) (lifetimeMerge, error) {
	opts, shards, err := prepare(net, opts, shards, false)
	if err != nil {
		return lifetimeMerge{}, err
	}
	if lopts, err = lopts.withDefaults(net); err != nil {
		return lifetimeMerge{}, err
	}
	if src == nil {
		src = UniformLoad
	}
	parts := make([]partialLifetime, shards)
	runLifetimeFanout(lopts, opts, shards, func(w int, procSeed, trafficSeed uint64) {
		parts[w] = runLifetimeShard(net, lopts, src, opts, w, procSeed, trafficSeed)
	})
	m, err := mergeLifetimes(parts, lopts, opts)
	m.lopts, m.shards = lopts, shards
	return m, err
}

// lifetimeMerge is a lifetime result before it takes its network's
// typed shape: the defaulted options and shard count, the
// exactly-merged per-epoch series, the summed lifetime counters and the
// derived aggregates.
type lifetimeMerge struct {
	lopts                                       LifetimeOptions
	shards                                      int
	bandwidth, reachable, deadFrac, p99, parked *stats.TimeSeries
	totals                                      queuesim.Totals
	rep                                         *probe.Report

	lifetimeBandwidth  float64
	deliveredFraction  float64
	timeBelowThreshold float64
	recoveryHalfLife   float64
}

// lifetimeProbe builds shard w's probe for a lifetime sweep: heat bins
// align one-to-one with epochs (so per-shard series merge exactly, the
// same rule as every other epoch series), and only shard 0 samples
// traces — its seed pair is shard-count independent, which keeps the
// trace set deterministic under re-sharding while every shard still
// contributes heat.
func lifetimeProbe(po *probe.Options, lopts LifetimeOptions, w int) *probe.Probe {
	if po == nil {
		return nil
	}
	p := *po
	p.Bins = lopts.Epochs
	p.BinCycles = lopts.EpochCycles
	if w > 0 {
		p.SampleEvery = 0
	}
	return probe.New(p)
}

// runLifetimeFanout derives one (process, traffic) seed pair per shard
// from opts.Seed — shared by every lifetime sweep, open- and
// closed-loop, which is what makes "same Options" mean "same replays"
// across the two networks — runs shard for every shard in parallel and
// reports each shard's stage. Every lifetime shard runs the full epoch
// schedule.
func runLifetimeFanout(lopts LifetimeOptions, opts Options, shards int, shard func(w int, procSeed, trafficSeed uint64)) {
	// Derive per-shard seeds up front so the assignment does not depend
	// on scheduling.
	root := xrand.New(opts.Seed ^ 0x5bf0_3635_d1c2_a94f)
	type shardSeed struct{ proc, traffic uint64 }
	seeds := make([]shardSeed, shards)
	for w := range seeds {
		seeds[w] = shardSeed{proc: root.Uint64() | 1, traffic: root.Uint64() | 1}
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			shard(w, seeds[w].proc, seeds[w].traffic)
			if opts.OnStage != nil {
				opts.OnStage("shard", w, lopts.Epochs*lopts.EpochCycles, start, time.Since(start))
			}
		}(w)
	}
	wg.Wait()
}

// mergeLifetimes merges the shard lifetimes' series, counters and
// probe reports exactly and derives the aggregates.
func mergeLifetimes(parts []partialLifetime, lopts LifetimeOptions, opts Options) (lifetimeMerge, error) {
	mergeStart := time.Now()
	m := lifetimeMerge{
		bandwidth: stats.NewTimeSeries(lopts.Epochs),
		reachable: stats.NewTimeSeries(lopts.Epochs),
		deadFrac:  stats.NewTimeSeries(lopts.Epochs),
		p99:       stats.NewTimeSeries(lopts.Epochs),
		parked:    stats.NewTimeSeries(lopts.Epochs),
	}
	for w := range parts {
		p := &parts[w]
		if p.err != nil {
			return lifetimeMerge{}, p.err
		}
		for _, s := range []struct{ into, from *stats.TimeSeries }{
			{m.bandwidth, p.bandwidth},
			{m.reachable, p.reachable},
			{m.deadFrac, p.deadFrac},
			{m.p99, p.p99},
			{m.parked, p.parked},
		} {
			if err := s.into.Merge(s.from); err != nil {
				return lifetimeMerge{}, err
			}
		}
		m.totals.Injected += p.totals.Injected
		m.totals.Refused += p.totals.Refused
		m.totals.Delivered += p.totals.Delivered
		m.totals.Dropped += p.totals.Dropped
		m.totals.Stranded += p.totals.Stranded
		if p.rep != nil {
			if m.rep == nil {
				m.rep = p.rep
			} else if err := m.rep.Merge(p.rep); err != nil {
				return lifetimeMerge{}, err
			}
		}
	}
	m.lifetimeBandwidth = m.bandwidth.MeanOverall()
	if m.totals.Injected > 0 {
		m.deliveredFraction = float64(m.totals.Delivered) / float64(m.totals.Injected)
	} else {
		m.deliveredFraction = 1
	}
	m.timeBelowThreshold = m.bandwidth.FractionBelow(lopts.Threshold)
	m.recoveryHalfLife = stats.RecoveryHalfLife(m.bandwidth.Means(), 0.1)
	if opts.OnStage != nil {
		opts.OnStage("merge", -1, 0, mergeStart, time.Since(mergeStart))
	}
	return m, nil
}

// runLifetimeShard simulates one independent lifetime: warmup
// fault-free, then Epochs iterations of (advance the failure process,
// compile, swap the masks into the running engine in place, run
// EpochCycles cycles, record the epoch's series).
func runLifetimeShard(net Net, lopts LifetimeOptions, src LoadPattern, opts Options, w int, procSeed, trafficSeed uint64) partialLifetime {
	fab, err := net.churned(lopts.Spec, xrand.New(procSeed), opts.Factory)
	if err != nil {
		return partialLifetime{err: err}
	}
	eng, pr := fab.eng, lifetimeProbe(opts.Probe, lopts, w)
	pattern := src(lopts.Load, xrand.New(trafficSeed))
	inputs, outputs := net.ports()
	live := make([]bool, outputs)
	p := partialLifetime{
		bandwidth: stats.NewTimeSeries(lopts.Epochs),
		reachable: stats.NewTimeSeries(lopts.Epochs),
		deadFrac:  stats.NewTimeSeries(lopts.Epochs),
		p99:       stats.NewTimeSeries(lopts.Epochs),
		parked:    stats.NewTimeSeries(lopts.Epochs),
	}
	gen, inPlace := pattern.(traffic.IntoGenerator)
	dest := make([]int, inputs)
	for c := 0; c < opts.Warmup; c++ {
		if inPlace {
			gen.GenerateInto(dest, outputs)
		} else {
			dest = pattern.Generate(inputs, outputs)
		}
		if _, p.err = eng.Cycle(dest); p.err != nil {
			return p
		}
	}
	// Lifetime counters exclude the fault-free warmup (the same
	// open-loop truncation MeasureLatency applies): the reported
	// delivered fraction describes the churned lifetime, not the
	// healthy fill. The probe attaches at the same boundary, so heat
	// bin e is exactly epoch e.
	warm := eng.Totals()
	if pr != nil {
		eng.SetProbe(pr)
	}

	for e := 0; e < lopts.Epochs; e++ {
		reach, deadFrac, err := fab.step(live)
		if err != nil {
			p.err = err
			return p
		}
		eng.ResetLatency()
		before := eng.Totals()
		parked := 0
		for c := 0; c < lopts.EpochCycles; c++ {
			if inPlace {
				gen.GenerateInto(dest, outputs)
			} else {
				dest = pattern.Generate(inputs, outputs)
			}
			cs, err := eng.Cycle(dest)
			if err != nil {
				p.err = err
				return p
			}
			parked += cs.ParkedOnDead
		}
		after := eng.Totals()
		delivered := after.Delivered - before.Delivered
		p.bandwidth.Add(e, float64(delivered)/float64(lopts.EpochCycles*inputs))
		p.reachable.Add(e, float64(reach)/float64(outputs))
		p.deadFrac.Add(e, deadFrac)
		if eng.Latency().N() > 0 {
			// A blackout epoch that retires nothing has no latency
			// observation; recording its empty-histogram quantile (0)
			// would make a total outage look like a perfect tail.
			p.p99.Add(e, eng.Latency().Quantile(0.99))
		}
		p.parked.Add(e, float64(parked)/float64(lopts.EpochCycles))
	}
	tot := eng.Totals()
	p.totals = queuesim.Totals{
		Injected:  tot.Injected - warm.Injected,
		Refused:   tot.Refused - warm.Refused,
		Delivered: tot.Delivered - warm.Delivered,
		Dropped:   tot.Dropped - warm.Dropped,
		Stranded:  tot.Stranded - warm.Stranded,
	}
	if pr != nil {
		p.rep = pr.Report()
	}
	return p
}

// partialLifetime is one shard's private accumulation.
type partialLifetime struct {
	bandwidth, reachable, deadFrac, p99, parked *stats.TimeSeries
	totals                                      queuesim.Totals
	rep                                         *probe.Report
	err                                         error
}

// DilatedLifetimeResult is the availability-over-time view of a dilated
// delta under sub-wire churn, with the same series and aggregate
// semantics as LifetimeResult.
type DilatedLifetimeResult struct {
	Dilated     dilated.Config
	MTBF        float64
	MTTR        float64
	Timing      lifecycle.Timing
	Depth       int
	Policy      queuesim.Policy
	Epochs      int
	EpochCycles int
	Shards      int
	Threshold   float64

	Bandwidth    *stats.TimeSeries // delivered packets per input per cycle
	Reachable    *stats.TimeSeries // fraction of output ports still reachable
	DeadFraction *stats.TimeSeries // dead fraction of the sub-wire population
	LatencyP99   *stats.TimeSeries // P99 delivery latency within the epoch
	Parked       *stats.TimeSeries // mean packets parked on dead sub-wires per cycle

	Injected  int64
	Refused   int64
	Delivered int64
	Dropped   int64
	Stranded  int64

	LifetimeBandwidth  float64
	DeliveredFraction  float64
	TimeBelowThreshold float64
	RecoveryHalfLife   float64

	// Observed: see LifetimeResult.Observed.
	Observed *probe.Report
}

// String renders the headline numbers.
func (r DilatedLifetimeResult) String() string {
	return fmt.Sprintf("%v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
		r.Dilated, r.MTBF, r.MTTR,
		r.LifetimeBandwidth, 100*r.TimeBelowThreshold, r.RecoveryHalfLife)
}

// MarshalJSON encodes the NaN sentinel of RecoveryHalfLife as null;
// see LifetimeResult.MarshalJSON.
func (r DilatedLifetimeResult) MarshalJSON() ([]byte, error) {
	type alias DilatedLifetimeResult
	aux := struct {
		alias
		RecoveryHalfLife *float64 `json:"RecoveryHalfLife"`
	}{alias: alias(r)}
	if !math.IsNaN(r.RecoveryHalfLife) {
		aux.RecoveryHalfLife = &r.RecoveryHalfLife
	}
	return json.Marshal(aux)
}

// DilatedLifetimeSweep simulates a dilated delta's whole service life
// under sub-wire churn: LifetimeSweep's harness with every sub-wire on
// an alternating-renewal clock of lopts.Spec's MTBF/MTTR/Timing (the
// population is always the sub-wires — the network's entire redundancy
// budget — so Spec.Mode and the blast overlay, which name EDN
// structures, are ignored). Under the same Options the two sweeps churn
// an EDN and its counterpart through identically distributed outages
// under identical per-input traffic replays — the measured lifetime
// half of the equal-redundancy comparison. lopts.Threshold <= 0 selects
// half the counterpart's own fault-free mean-field bandwidth per input.
func DilatedLifetimeSweep(n Dilated, lopts LifetimeOptions, src LoadPattern, opts Options, shards int) (DilatedLifetimeResult, error) {
	m, err := lifetimeSweep(n, lopts, src, opts, shards)
	if err != nil {
		return DilatedLifetimeResult{}, err
	}
	return DilatedLifetimeResult{
		Dilated:            n.Config,
		MTBF:               m.lopts.Spec.MTBF,
		MTTR:               m.lopts.Spec.MTTR,
		Timing:             m.lopts.Spec.Timing,
		Epochs:             m.lopts.Epochs,
		EpochCycles:        m.lopts.EpochCycles,
		Shards:             m.shards,
		Threshold:          m.lopts.Threshold,
		Depth:              n.Queue.Depth,
		Policy:             n.Queue.Policy,
		Bandwidth:          m.bandwidth,
		Reachable:          m.reachable,
		DeadFraction:       m.deadFrac,
		LatencyP99:         m.p99,
		Parked:             m.parked,
		Injected:           m.totals.Injected,
		Refused:            m.totals.Refused,
		Delivered:          m.totals.Delivered,
		Dropped:            m.totals.Dropped,
		Stranded:           m.totals.Stranded,
		LifetimeBandwidth:  m.lifetimeBandwidth,
		DeliveredFraction:  m.deliveredFraction,
		TimeBelowThreshold: m.timeBelowThreshold,
		RecoveryHalfLife:   m.recoveryHalfLife,
		Observed:           m.rep,
	}, nil
}
