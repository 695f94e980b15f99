package simulate

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"edn/internal/dilated"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
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
	// half of healthy" (dilated.Config.PA's closed form for a dilated
	// delta).
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
// Config or Dilated names the measured network.
type LifetimeResult struct {
	Config      topology.Config // zero for dilated runs
	Dilated     dilated.Config  `json:",omitzero"` // zero, and left out of the JSON, for EDN runs
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

// Network names the measured network.
func (r LifetimeResult) Network() string { return networkName(r.Config, r.Dilated) }

// String renders the headline numbers.
func (r LifetimeResult) String() string {
	return fmt.Sprintf("%s %v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
		r.Network(), r.Spec.Mode, r.Spec.MTBF, r.Spec.MTTR,
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

// LifetimeSweep simulates a network's whole service life: components
// fail and get repaired epoch by epoch (one lifecycle.Process per
// shard, over an EDN's lopts.Spec.Mode population or a dilated delta's
// sub-wires), the running engines are re-masked in place via
// UpdateFaults — queue contents, arbiter state and all precomputed
// tables survive every swap, so packets in flight experience the
// failure exactly as deployed hardware would — and every epoch's
// delivered bandwidth, reachability and latency tail are recorded into
// per-epoch time series. A dilated delta churns its sub-wires on
// lopts.Spec's MTBF/MTTR/Timing clocks; a Spec.Mode other than
// WireFaults, a blast overlay or repair windows on it are an error.
//
// Shards are fully independent lifetimes (own engine, own failure
// story, own traffic stream, seeds derived from opts.Seed) executed in
// parallel and merged exactly per epoch, the run-level pattern of
// SaturationSweep; results are deterministic for a fixed (seed, shards)
// pair. The same Options churn an EDN and its counterpart through
// identically distributed outages under identical per-input traffic
// replays — the measured lifetime half of the equal-redundancy
// comparison. shards <= 0 selects GOMAXPROCS; src nil selects uniform
// iid traffic at lopts.Load.
//
// opts.Warmup cycles run fault-free before the first epoch so the
// series starts from the healthy steady state. Fault processes that
// kill output terminals (switch/mixed churn reaching the crossbars)
// pair naturally with the Drop policy; under Backpressure packets
// addressed to a dead terminal park until the repair arrives (counted
// in the Parked series) — a real operational regime, but one that
// conflates queueing with availability in the bandwidth series.
func LifetimeSweep(net Net, lopts LifetimeOptions, src LoadPattern, opts Options, shards int) (LifetimeResult, error) {
	opts, shards, err := prepare(net, opts, shards, false)
	if err != nil {
		return LifetimeResult{}, err
	}
	if lopts, err = lopts.withDefaults(net); err != nil {
		return LifetimeResult{}, err
	}
	if src == nil {
		src = UniformLoad
	}
	parts := make([]partialLifetime, shards)
	err = runLifetimeShards(net, opts, lopts, shards, func(w int, procSeed, trafficSeed uint64) (err error) {
		parts[w], err = runLifetimeShard(net, lopts, src, opts, w, procSeed, trafficSeed)
		return err
	})
	if err != nil {
		return LifetimeResult{}, err
	}
	mergeStart := time.Now()
	m := newEpochSeries(lifeSeries, lopts.Epochs)
	res := LifetimeResult{
		Spec:         lopts.Spec,
		Epochs:       lopts.Epochs,
		EpochCycles:  lopts.EpochCycles,
		Shards:       shards,
		Threshold:    lopts.Threshold,
		Bandwidth:    m.series[lifeBandwidth],
		Reachable:    m.series[lifeReachable],
		DeadFraction: m.series[lifeDeadFrac],
		LatencyP99:   m.series[lifeP99],
		Parked:       m.series[lifeParked],
	}
	res.Config, res.Dilated = net.label()
	res.Depth, res.Policy = net.regime()
	for w := range parts {
		p := &parts[w]
		if err := m.merge(&p.epochSeries); err != nil {
			return LifetimeResult{}, err
		}
		res.Injected += p.totals.Injected
		res.Refused += p.totals.Refused
		res.Delivered += p.totals.Delivered
		res.Dropped += p.totals.Dropped
		res.Stranded += p.totals.Stranded
	}
	res.Observed = m.rep
	res.LifetimeBandwidth = res.Bandwidth.MeanOverall()
	if res.Injected > 0 {
		res.DeliveredFraction = float64(res.Delivered) / float64(res.Injected)
	} else {
		res.DeliveredFraction = 1
	}
	res.TimeBelowThreshold = res.Bandwidth.FractionBelow(lopts.Threshold)
	res.RecoveryHalfLife = stats.RecoveryHalfLife(res.Bandwidth.Means(), 0.1)
	opts.stage("merge", -1, 0, mergeStart)
	return res, nil
}

// epochSeries is a lifetime's per-epoch series, indexed by its family's
// series constants, and its probe report: one shard's, or every shard's
// merged exactly.
type epochSeries struct {
	series []*stats.TimeSeries
	rep    *probe.Report
}

func newEpochSeries(n, epochs int) epochSeries {
	s := epochSeries{series: make([]*stats.TimeSeries, n)}
	for i := range s.series {
		s.series[i] = stats.NewTimeSeries(epochs)
	}
	return s
}

// merge folds one shard's series and probe report into s exactly: the
// one series-and-report merge of both lifetime families.
func (s *epochSeries) merge(shard *epochSeries) error {
	for i, ts := range s.series {
		if err := ts.Merge(shard.series[i]); err != nil {
			return err
		}
	}
	switch {
	case shard.rep == nil:
	case s.rep == nil:
		s.rep = shard.rep
	default:
		return s.rep.Merge(shard.rep)
	}
	return nil
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

// runLifetimeShards is the fan-out of both lifetime families, open-
// and closed-loop: it rejects churn settings net cannot apply before
// any shard runs, derives one (process, traffic) seed pair per shard
// from opts.Seed — shared by both, which is what makes "same Options"
// mean "same replays" across the two networks — and runs shard for
// every shard through runShards, under a budget of shards x Epochs x
// EpochCycles so each shard runs the full epoch schedule.
func runLifetimeShards(net Net, opts Options, lopts LifetimeOptions, shards int, shard func(w int, procSeed, trafficSeed uint64) error) error {
	if err := net.checkFaults(lopts.Spec); err != nil {
		return err
	}
	root := xrand.New(opts.Seed ^ 0x5bf0_3635_d1c2_a94f)
	type shardSeed struct{ proc, traffic uint64 }
	seeds := make([]shardSeed, shards)
	for w := range seeds {
		seeds[w] = shardSeed{proc: root.Uint64() | 1, traffic: root.Uint64() | 1}
	}
	budget := opts
	budget.Cycles = shards * lopts.Epochs * lopts.EpochCycles
	return runShards(budget, shards, func(w, _ int) error {
		return shard(w, seeds[w].proc, seeds[w].traffic)
	})
}

// The open-loop lifetime's per-epoch series, in epochSeries order.
const (
	lifeBandwidth = iota // delivered packets per input per cycle
	lifeReachable        // fraction of outputs still reachable
	lifeDeadFrac         // dead fraction of the churned population
	lifeP99              // P99 delivery latency within the epoch
	lifeParked           // mean packets parked on dead components per cycle
	lifeSeries
)

// partialLifetime is one shard's private accumulation.
type partialLifetime struct {
	epochSeries
	totals queuesim.Totals
}

// runLifetimeShard simulates one independent lifetime: warmup
// fault-free, then Epochs iterations of (advance the failure process,
// compile, swap the masks into the running engine in place, run
// EpochCycles cycles, record the epoch's series).
func runLifetimeShard(net Net, lopts LifetimeOptions, src LoadPattern, opts Options, w int, procSeed, trafficSeed uint64) (partialLifetime, error) {
	p := partialLifetime{epochSeries: newEpochSeries(lifeSeries, lopts.Epochs)}
	fab, err := churned(net, lopts.Spec, xrand.New(procSeed), opts.Factory)
	if err != nil {
		return p, err
	}
	eng, pr := fab.eng, lifetimeProbe(opts.Probe, lopts, w)
	inputs, outputs := net.ports()
	next := trafficStep(src(lopts.Load, xrand.New(trafficSeed)), inputs, outputs)
	live := make([]bool, outputs)
	for c := 0; c < opts.Warmup; c++ {
		if _, err := eng.Cycle(next()); err != nil {
			return p, err
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
			return p, err
		}
		eng.ResetLatency()
		before := eng.Totals()
		parked := 0
		for c := 0; c < lopts.EpochCycles; c++ {
			cs, err := eng.Cycle(next())
			if err != nil {
				return p, err
			}
			parked += cs.ParkedOnDead
		}
		after := eng.Totals()
		delivered := after.Delivered - before.Delivered
		p.series[lifeBandwidth].Add(e, float64(delivered)/float64(lopts.EpochCycles*inputs))
		p.series[lifeReachable].Add(e, float64(reach)/float64(outputs))
		p.series[lifeDeadFrac].Add(e, deadFrac)
		if eng.Latency().N() > 0 {
			// A blackout epoch that retires nothing has no latency
			// observation; recording its empty-histogram quantile (0)
			// would make a total outage look like a perfect tail.
			p.series[lifeP99].Add(e, eng.Latency().Quantile(0.99))
		}
		p.series[lifeParked].Add(e, float64(parked)/float64(lopts.EpochCycles))
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
	return p, nil
}
