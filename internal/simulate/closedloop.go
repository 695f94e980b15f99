package simulate

import (
	"fmt"
	"time"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// ClosedLoopResult aggregates a closed-loop measurement at one demand
// rate: the request ledger, the end-to-end latency distribution and the
// goodput/SLA headline numbers, merged exactly across shards.
type ClosedLoopResult struct {
	Config  topology.Config // zero for dilated runs
	Dilated dilated.Config  // zero for EDN runs
	Rate    float64         // configured demand probability per source per cycle
	Window  int
	Depth   int
	Policy  queuesim.Policy
	Retry   closedloop.RetryPolicy
	Cycles  int // measured cycles (warmup excluded), summed across shards
	Shards  int

	// Ledger sums the per-shard measurement-window deltas of the
	// cumulative counters; the gauges are the end-of-run leftovers
	// summed across shards.
	Ledger closedloop.Ledger

	// OfferedRate is measured demand per source per cycle; Goodput is
	// completed round trips per source per cycle; CompletedFraction is
	// completed over offered; SLAAttainment is deadline-curve credit
	// over offered (equals CompletedFraction under the zero SLA).
	OfferedRate       float64
	Goodput           float64
	CompletedFraction float64
	SLAAttainment     float64

	// End-to-end latency quantiles in cycles, demand arrival to reply
	// delivery, over round trips completed in the window.
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	LatencyMax  float64
	Histogram   *stats.Histogram

	// Observed carries the flight-recorder report when Options.Probe
	// was set: sampled request traces (attempt-numbered issue, timeout,
	// retry and completion events) plus per-cycle ledger-gauge heat,
	// from the one observation pass, run beside the shards on the
	// point's worker pool (see Options.observation for the determinism
	// argument).
	Observed *probe.Report
}

// Network names the measured network.
func (r ClosedLoopResult) Network() string { return networkName(r.Config, r.Dilated) }

// String renders the headline numbers.
func (r ClosedLoopResult) String() string {
	return fmt.Sprintf("%s W=%d rate=%.3f: goodput=%.3f/src/cycle sla=%.3f lat p50=%.0f p95=%.0f retries=%d giveups=%d",
		r.Network(), r.Window, r.Rate, r.Goodput, r.SLAAttainment,
		r.LatencyP50, r.LatencyP95, r.Ledger.Retries, r.Ledger.GivenUp)
}

// closedLoopPartial is one shard's measurement-window view.
type closedLoopPartial struct {
	led    closedloop.Ledger
	sla    float64
	hist   *stats.Histogram
	cycles int
	rep    *probe.Report
}

// ledgerDelta subtracts the cumulative counters (the gauges are
// instantaneous and carry over as-is).
func ledgerDelta(after, before closedloop.Ledger) closedloop.Ledger {
	return closedloop.Ledger{
		Offered:      after.Offered - before.Offered,
		Shed:         after.Shed - before.Shed,
		Issued:       after.Issued - before.Issued,
		Completed:    after.Completed - before.Completed,
		GivenUp:      after.GivenUp - before.GivenUp,
		Timeouts:     after.Timeouts - before.Timeouts,
		Retries:      after.Retries - before.Retries,
		Orphans:      after.Orphans - before.Orphans,
		Stale:        after.Stale - before.Stale,
		Avoided:      after.Avoided - before.Avoided,
		Backlogged:   after.Backlogged,
		InFlight:     after.InFlight,
		RetryWaiting: after.RetryWaiting,
	}
}

func ledgerAdd(into *closedloop.Ledger, d closedloop.Ledger) {
	into.Offered += d.Offered
	into.Shed += d.Shed
	into.Issued += d.Issued
	into.Completed += d.Completed
	into.GivenUp += d.GivenUp
	into.Timeouts += d.Timeouts
	into.Retries += d.Retries
	into.Orphans += d.Orphans
	into.Stale += d.Stale
	into.Avoided += d.Avoided
	into.Backlogged += d.Backlogged
	into.InFlight += d.InFlight
	into.RetryWaiting += d.RetryWaiting
}

// runClosedLoopShard builds a fresh loop over two fresh fabrics of net
// (requests forward, replies back) with demand drawn from seed, runs
// o.Warmup + o.Cycles cycles with o's probe and anatomy collector
// attached at the measurement boundary, asserts conservation, and
// returns the measurement-window deltas.
func runClosedLoopShard(net Net, lo closedloop.Options, seed uint64, o Options) (closedLoopPartial, error) {
	fwd, err := net.engine(o.Factory)
	if err != nil {
		return closedLoopPartial{}, err
	}
	rev, err := net.engine(o.Factory)
	if err != nil {
		return closedLoopPartial{}, err
	}
	inputs, outputs := net.ports()
	lo.Seed = seed
	loop, err := closedloop.New(fwd, rev, inputs, outputs, lo)
	if err != nil {
		return closedLoopPartial{}, err
	}
	for c := 0; c < o.Warmup; c++ {
		if _, err := loop.Cycle(); err != nil {
			return closedLoopPartial{}, err
		}
	}
	warmLed, warmSLA := loop.Ledger(), loop.SLACredit()
	loop.ResetLatency()
	pr := newProbe(o.Probe, o.Cycles)
	if pr != nil {
		loop.SetProbe(pr)
	}
	var an *anatomy.Collector
	if o.Anatomy != nil {
		// Attached at the measurement boundary, like the probe: the
		// five-way request split covers completions inside the window.
		an = anatomy.New(*o.Anatomy)
		loop.SetAnatomy(an)
	}
	for c := 0; c < o.Cycles; c++ {
		if _, err := loop.Cycle(); err != nil {
			return closedLoopPartial{}, err
		}
	}
	if err := loop.CheckConservation(); err != nil {
		return closedLoopPartial{}, err
	}
	if an != nil && o.OnAnatomy != nil {
		o.OnAnatomy(an.Report())
	}
	part := closedLoopPartial{
		led:    ledgerDelta(loop.Ledger(), warmLed),
		sla:    loop.SLACredit() - warmSLA,
		hist:   loop.Latency().Clone(),
		cycles: o.Cycles,
	}
	if pr != nil {
		part.rep = pr.Report()
	}
	return part, nil
}

// closedLoopPoint measures one demand-rate point — point `index` on
// the sweep's rate axis — as bare shards under pointSeeds, the seeds a
// saturation point derives: same Options mean same shard seeds, which
// is what keeps an EDN sweep and its dilated counterpart replay-matched
// at the request level. The observation pass runs beside the shards on
// the point's worker pool. Callers must have run prepare.
func closedLoopPoint(net Net, rate float64, index int, lo closedloop.Options, opts Options, shards int) (ClosedLoopResult, error) {
	lo.Rate = rate
	seeds := pointSeeds(opts.Seed, index, shards)
	observe, observed := opts.observation(func(o Options) (*probe.Report, error) {
		obs, err := runClosedLoopShard(net, lo, seeds[0], o)
		return obs.rep, err
	})
	parts := make([]closedLoopPartial, shards)
	err := runShards(opts, shards, observe, func(w, cycles int) (err error) {
		parts[w], err = runClosedLoopShard(net, lo, seeds[w], opts.bare(cycles))
		return err
	})
	if err != nil {
		return ClosedLoopResult{}, err
	}

	mergeStart := time.Now()
	res := ClosedLoopResult{Rate: rate, Window: lo.Window, Retry: lo.Retry, Shards: shards}
	res.Config, res.Dilated = net.label()
	res.Depth, res.Policy = net.regime()
	for w := range parts {
		p := &parts[w]
		if p.cycles == 0 && p.hist == nil {
			continue
		}
		res.Cycles += p.cycles
		ledgerAdd(&res.Ledger, p.led)
		res.SLAAttainment += p.sla // credit sum; normalized below
		if res.Histogram == nil {
			res.Histogram = p.hist
		} else if err := res.Histogram.Merge(p.hist); err != nil {
			return ClosedLoopResult{}, err
		}
	}
	inputs, _ := net.ports()
	res.fill(inputs)
	opts.stage("merge", -1, 0, mergeStart)
	res.Observed = observed()
	return res, nil
}

// fill derives the summary fields; SLAAttainment holds the raw credit
// sum on entry.
func (r *ClosedLoopResult) fill(inputs int) {
	if r.Cycles > 0 {
		r.OfferedRate = float64(r.Ledger.Offered) / float64(r.Cycles*inputs)
		r.Goodput = float64(r.Ledger.Completed) / float64(r.Cycles*inputs)
	}
	if r.Ledger.Offered > 0 {
		// Requests offered during warmup can complete inside the
		// measurement window, nudging the ratios past 1 at light load;
		// clamp the boundary effect.
		r.CompletedFraction = min(1, float64(r.Ledger.Completed)/float64(r.Ledger.Offered))
		r.SLAAttainment = min(1, r.SLAAttainment/float64(r.Ledger.Offered))
	} else {
		r.CompletedFraction = 1
		r.SLAAttainment = 1
	}
	if h := r.Histogram; h != nil {
		r.LatencyMean = h.Mean()
		r.LatencyP50 = h.Quantile(0.50)
		r.LatencyP95 = h.Quantile(0.95)
		r.LatencyP99 = h.Quantile(0.99)
		r.LatencyMax = h.Max()
	}
}

// MeasureClosedLoop measures the closed-loop request/response workload
// over net at each demand rate: two fabric instances (requests forward,
// replies back — through the Outputs/Inputs concentrator on an EDN, the
// identity on a square dilated delta), W outstanding requests per
// source, timeout/retry per lo. Results carry goodput vs offered
// demand, the end-to-end latency histogram, and the full
// retry/timeout/give-up ledger. lo.Rate and lo.Seed are overridden per
// rate point and shard. shards <= 0 selects GOMAXPROCS; results are
// deterministic for a fixed (seed, shards) pair, and the same Options
// derive the same shard seeds for either network, so the two sides of a
// counterpart comparison draw bit-identical demand.
func MeasureClosedLoop(net Net, rates []float64, lo closedloop.Options, opts Options, shards int) ([]ClosedLoopResult, error) {
	opts, shards, err := prepare(net, opts, shards, true)
	if err != nil {
		return nil, err
	}
	results := make([]ClosedLoopResult, 0, len(rates))
	for i, rate := range rates {
		res, err := closedLoopPoint(net, rate, i, lo, opts, shards)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// MeasureClosedLoopPair runs the replay-matched EDN vs dilated
// comparison: both sweeps under the same Options, then a hard assertion
// that every rate point offered a bit-equal demand count on both sides
// — the demand streams are seed-derived, so anything else means the
// replay matching broke and the comparison is invalid. The dilated side
// must have as many ports as the EDN has inputs (dilated.Counterpart
// arranges this).
func MeasureClosedLoopPair(e EDN, d Dilated, rates []float64, lo closedloop.Options, opts Options, shards int) (ednRes, dilRes []ClosedLoopResult, err error) {
	for _, net := range []Net{e, d} {
		if err := net.validate(); err != nil {
			return nil, nil, err
		}
	}
	if e.Config.Inputs() != d.Config.Ports() {
		return nil, nil, fmt.Errorf("simulate: closed-loop pair needs matching source counts, EDN %v has %d inputs, %v has %d ports",
			e.Config, e.Config.Inputs(), d.Config, d.Config.Ports())
	}
	ednRes, err = MeasureClosedLoop(e, rates, lo, opts, shards)
	if err != nil {
		return nil, nil, err
	}
	dilRes, err = MeasureClosedLoop(d, rates, lo, opts, shards)
	if err != nil {
		return nil, nil, err
	}
	for i := range ednRes {
		if eo, do := ednRes[i].Ledger.Offered, dilRes[i].Ledger.Offered; eo != do {
			return nil, nil, fmt.Errorf("simulate: closed-loop pair replay mismatch at rate %.3f: EDN offered %d, dilated %d",
				ednRes[i].Rate, eo, do)
		}
	}
	return ednRes, dilRes, nil
}

// ClosedLoopLifetimeResult is the availability-over-time view of the
// closed-loop workload: per-epoch goodput, SLA attainment, tail latency
// and retry pressure while the fabric churns underneath, plus the
// lifetime ledger and the SLA-weighted cost-of-downtime aggregate.
type ClosedLoopLifetimeResult struct {
	Config      topology.Config // zero for dilated runs
	Dilated     dilated.Config  // zero for EDN runs
	Spec        lifecycle.Spec
	Rate        float64
	Window      int
	Depth       int
	Policy      queuesim.Policy
	Retry       closedloop.RetryPolicy
	Epochs      int
	EpochCycles int
	Shards      int

	// Per-epoch series, merged exactly across shard replays.
	Goodput       *stats.TimeSeries // completed round trips per source per cycle
	SLAAttainment *stats.TimeSeries // deadline-curve credit per offered demand
	LatencyP95    *stats.TimeSeries // P95 end-to-end latency within the epoch
	Retries       *stats.TimeSeries // retries per source per cycle
	Timeouts      *stats.TimeSeries // attempt timeouts per source per cycle
	Reachable     *stats.TimeSeries // fraction of memory ports still reachable (forward fabric)
	DeadFraction  *stats.TimeSeries // dead fraction of the churned population (forward fabric)

	// Ledger sums the churned-lifetime deltas across shards (gauges:
	// end-of-lifetime leftovers).
	Ledger closedloop.Ledger

	// GoodputOverall averages the goodput series over the lifetime.
	// SLAAttainmentOverall is total deadline-curve credit over total
	// demand, and CostOfDowntime is its complement: the fraction of the
	// lifetime's demanded work that was never delivered within the
	// response-deadline curve — the SLA-weighted price of the outages.
	GoodputOverall       float64
	SLAAttainmentOverall float64
	CostOfDowntime       float64

	// Observed carries the flight-recorder report when Options.Probe
	// was set: ledger-gauge heat binned one bin per epoch, merged
	// across every shard, plus request traces from shard 0's replay.
	Observed *probe.Report
}

// Network names the measured network.
func (r ClosedLoopLifetimeResult) Network() string { return networkName(r.Config, r.Dilated) }

// String renders the headline numbers.
func (r ClosedLoopLifetimeResult) String() string {
	return fmt.Sprintf("%s closed-loop mtbf=%g mttr=%g: goodput=%.3f/src/cycle sla=%.3f downtime-cost=%.1f%%",
		r.Network(), r.Spec.MTBF, r.Spec.MTTR,
		r.GoodputOverall, r.SLAAttainmentOverall, 100*r.CostOfDowntime)
}

// The closed-loop lifetime's per-epoch series, in epochSeries order.
const (
	loopGoodput   = iota // completed round trips per source per cycle
	loopSLA              // deadline-curve credit per offered demand
	loopP95              // P95 end-to-end latency within the epoch
	loopRetries          // retries per source per cycle
	loopTimeouts         // attempt timeouts per source per cycle
	loopReachable        // fraction of memory ports still reachable
	loopDeadFrac         // dead fraction of the forward fabric's population
	loopSeries
)

// closedLoopLifetimePartial is one shard's lifetime accumulation.
type closedLoopLifetimePartial struct {
	epochSeries
	led    closedloop.Ledger
	credit float64
}

// runClosedLoopLifetimeShard is one shard's closed-loop lifetime: both
// fabrics churned by independent replicas of lopts.Spec drawn from
// procSeed, fault-free warmup, then Epochs iterations of (churn both
// fabrics, refresh the sources' avoidance list from the forward
// fabric's reachability, run EpochCycles cycles, record), with the full
// conservation invariant asserted at every epoch boundary.
func runClosedLoopLifetimeShard(net Net, lopts LifetimeOptions, lo closedloop.Options, opts Options, w int, procSeed, trafficSeed uint64) (closedLoopLifetimePartial, error) {
	p := closedLoopLifetimePartial{epochSeries: newEpochSeries(loopSeries, lopts.Epochs)}
	procRoot := xrand.New(procSeed)
	fwd, err := churned(net, lopts.Spec, procRoot.Split(), opts.Factory)
	if err != nil {
		return p, err
	}
	rev, err := churned(net, lopts.Spec, procRoot.Split(), opts.Factory)
	if err != nil {
		return p, err
	}
	inputs, outputs := net.ports()
	slo := lo
	slo.Rate = lopts.Load
	slo.Seed = trafficSeed
	loop, err := closedloop.New(fwd.eng, rev.eng, inputs, outputs, slo)
	if err != nil {
		return p, err
	}
	for c := 0; c < opts.Warmup; c++ {
		if _, err := loop.Cycle(); err != nil {
			return p, err
		}
	}
	warmLed, warmSLA := loop.Ledger(), loop.SLACredit()
	pr := lifetimeProbe(opts.Probe, lopts, w)
	if pr != nil {
		// Attached at the churn boundary: heat bin e is exactly epoch e.
		loop.SetProbe(pr)
	}

	live := make([]bool, outputs)
	perEpoch := float64(lopts.EpochCycles * inputs)
	for e := 0; e < lopts.Epochs; e++ {
		reach, deadFrac, err := fwd.step(live)
		if err == nil {
			_, _, err = rev.step(nil)
		}
		if err == nil {
			err = loop.SetLiveOutputs(live)
		}
		if err != nil {
			return p, err
		}
		reachable := float64(reach) / float64(outputs)
		before, slaBefore := loop.Ledger(), loop.SLACredit()
		loop.ResetLatency()
		for c := 0; c < lopts.EpochCycles; c++ {
			if _, err := loop.Cycle(); err != nil {
				return p, err
			}
		}
		if err := loop.CheckConservation(); err != nil {
			return p, fmt.Errorf("epoch %d: %w", e, err)
		}
		after := loop.Ledger()
		p.series[loopGoodput].Add(e, float64(after.Completed-before.Completed)/perEpoch)
		if offered := after.Offered - before.Offered; offered > 0 {
			p.series[loopSLA].Add(e, (loop.SLACredit()-slaBefore)/float64(offered))
		}
		if loop.Latency().N() > 0 {
			// A blackout epoch completing nothing has no latency
			// observation; an empty-histogram quantile would read as a
			// perfect tail.
			p.series[loopP95].Add(e, loop.Latency().Quantile(0.95))
		}
		p.series[loopRetries].Add(e, float64(after.Retries-before.Retries)/perEpoch)
		p.series[loopTimeouts].Add(e, float64(after.Timeouts-before.Timeouts)/perEpoch)
		p.series[loopReachable].Add(e, reachable)
		p.series[loopDeadFrac].Add(e, deadFrac)
	}
	p.led = ledgerDelta(loop.Ledger(), warmLed)
	p.credit = loop.SLACredit() - warmSLA
	if pr != nil {
		p.rep = pr.Report()
	}
	return p, nil
}

// runClosedLoopLifetime fans a closed-loop lifetime across shards —
// through runLifetimeShards, so the EDN and dilated sweeps stay
// replay-matched — and merges series, probe reports, ledger and
// aggregates.
func runClosedLoopLifetime(net Net, lopts LifetimeOptions, lo closedloop.Options, opts Options, shards int) (ClosedLoopLifetimeResult, error) {
	parts := make([]closedLoopLifetimePartial, shards)
	err := runLifetimeShards(net, opts, lopts, shards, func(w int, procSeed, trafficSeed uint64) (err error) {
		parts[w], err = runClosedLoopLifetimeShard(net, lopts, lo, opts, w, procSeed, trafficSeed)
		return err
	})
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	mergeStart := time.Now()
	m := newEpochSeries(loopSeries, lopts.Epochs)
	var led closedloop.Ledger
	var credit float64
	for w := range parts {
		if err := m.merge(&parts[w].epochSeries); err != nil {
			return ClosedLoopLifetimeResult{}, err
		}
		ledgerAdd(&led, parts[w].led)
		credit += parts[w].credit
	}
	res := ClosedLoopLifetimeResult{
		Rate:          lopts.Load,
		Epochs:        lopts.Epochs,
		EpochCycles:   lopts.EpochCycles,
		Shards:        shards,
		Goodput:       m.series[loopGoodput],
		SLAAttainment: m.series[loopSLA],
		LatencyP95:    m.series[loopP95],
		Retries:       m.series[loopRetries],
		Timeouts:      m.series[loopTimeouts],
		Reachable:     m.series[loopReachable],
		DeadFraction:  m.series[loopDeadFrac],
		Ledger:        led,
		Observed:      m.rep,
	}
	res.GoodputOverall = res.Goodput.MeanOverall()
	if offered := res.Ledger.Offered; offered > 0 {
		// Clamp the same warmup boundary effect as the rate sweep.
		res.SLAAttainmentOverall = min(1, credit/float64(offered))
	} else {
		res.SLAAttainmentOverall = 1
	}
	res.CostOfDowntime = 1 - res.SLAAttainmentOverall
	opts.stage("merge", -1, 0, mergeStart)
	return res, nil
}

// closedLoopLifetimeDefaults validates the shared knobs. The demand
// rate comes from lopts.Load and must be a probability.
func closedLoopLifetimeDefaults(lopts LifetimeOptions) (LifetimeOptions, error) {
	if lopts.Epochs <= 0 {
		return lopts, fmt.Errorf("simulate: closed-loop lifetime needs a positive epoch count")
	}
	if lopts.EpochCycles <= 0 {
		lopts.EpochCycles = 200
	}
	if lopts.Load <= 0 {
		lopts.Load = 0.5
	}
	if lopts.Load > 1 {
		return lopts, fmt.Errorf("simulate: closed-loop demand rate %g must be a probability", lopts.Load)
	}
	return lopts, nil
}

// ClosedLoopLifetimeSweep runs the closed-loop workload over net's
// whole service life: both fabrics (requests and replies) churn under
// independent replicas of lopts.Spec — sub-wire churn with its
// MTBF/MTTR/Timing on a dilated delta, where another Spec.Mode, a blast
// rate or a repair window above 1 is an error — the running engines are
// re-masked in place at every epoch boundary, the sources' avoidance
// list follows the forward fabric's reachable-output set, and every
// epoch records goodput, SLA attainment, tail latency and retry
// pressure. The request-ledger conservation invariant is asserted at
// every epoch of every shard. lopts.Load is the per-source demand
// probability; lopts.Threshold is unused here (the SLA curve in lo
// plays that role). The same Options derive the same shard seeds for
// either network, so the two sides of a counterpart comparison face
// identically distributed outages under bit-identical demand.
func ClosedLoopLifetimeSweep(net Net, lopts LifetimeOptions, lo closedloop.Options, opts Options, shards int) (ClosedLoopLifetimeResult, error) {
	opts, shards, err := prepare(net, opts, shards, false)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	if lopts, err = closedLoopLifetimeDefaults(lopts); err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	res, err := runClosedLoopLifetime(net, lopts, lo, opts, shards)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	res.Config, res.Dilated = net.label()
	res.Spec = lopts.Spec
	res.Window = lo.Window
	res.Depth, res.Policy = net.regime()
	res.Retry = lo.Retry
	return res, nil
}
