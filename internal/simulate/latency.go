package simulate

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"edn/internal/anatomy"
	"edn/internal/dilated"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// LatencyResult aggregates one queueing measurement: throughput plus the
// delivery-latency distribution of the packets retired inside the
// measurement window. Config identifies an EDN measurement; measuring a
// Dilated network leaves Config zero and sets Dilated instead — the
// stat fields mean the same thing either way, which is what lets the
// CLIs print the two networks' curves side by side.
type LatencyResult struct {
	Config  topology.Config
	Dilated dilated.Config // set instead of Config for dilated runs
	Pattern string
	Depth   int
	Policy  queuesim.Policy
	Cycles  int // measured cycles (warmup excluded), summed across shards
	Shards  int

	// Packet counters over the measurement window.
	Injected  int64 // packets offered at the inputs
	Refused   int64 // injections rejected at a full input
	Delivered int64
	Dropped   int64 // discarded mid-network (Drop policy only)

	// OfferedRate is offered packets per input per cycle; Throughput is
	// delivered packets per cycle; AcceptedFraction is delivered over
	// offered — the queueing analog of PA.
	OfferedRate      float64
	Throughput       float64
	AcceptedFraction float64
	// AvgQueued is the mean number of in-flight packets, sampled once
	// per cycle after injection (Little's law: AvgQueued/Throughput
	// approximates the mean latency at steady state).
	AvgQueued float64

	// Latency quantiles in cycles, over packets retired in the window.
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	LatencyMax  float64
	// Histogram is the full merged distribution backing the quantiles.
	Histogram *stats.Histogram

	// Observed carries the flight-recorder report when Options.Probe
	// was set. Sharded sweeps fill it from shard 0, which carries the
	// probe through the full cycle budget under the point's first
	// shard seed (deterministic for a given Options regardless of the
	// shard count and GOMAXPROCS); the probe never moves the measured
	// counters above.
	Observed *probe.Report
}

// Network names the measured network: the EDN configuration, or the
// dilated counterpart for dilated runs.
func (r LatencyResult) Network() string { return networkName(r.Config, r.Dilated) }

// String renders the headline numbers.
func (r LatencyResult) String() string {
	return fmt.Sprintf("%s %s depth=%d %v: offered=%.3f thr=%.1f/cycle lat mean=%.1f p50=%.0f p95=%.0f p99=%.0f",
		r.Network(), r.Pattern, r.Depth, r.Policy, r.OfferedRate, r.Throughput,
		r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99)
}

// fillQuantiles derives the summary fields from the histogram and
// counters.
func (r *LatencyResult) fillQuantiles(inputs int) {
	h := r.Histogram
	r.LatencyMean = h.Mean()
	r.LatencyP50 = h.Quantile(0.50)
	r.LatencyP95 = h.Quantile(0.95)
	r.LatencyP99 = h.Quantile(0.99)
	r.LatencyMax = h.Max()
	if r.Cycles > 0 {
		r.Throughput = float64(r.Delivered) / float64(r.Cycles)
		r.OfferedRate = float64(r.Injected) / float64(r.Cycles*inputs)
	}
	if r.Injected > 0 {
		r.AcceptedFraction = float64(r.Delivered) / float64(r.Injected)
	} else {
		r.AcceptedFraction = 1
	}
}

// measurePacketEngine drives pattern through net for opts.Warmup +
// opts.Cycles cycles and fills res's counters, histogram and quantiles.
// Latencies retired during warmup are discarded; packets injected
// during warmup but retired inside the window do count, and the
// window's still-queued survivors not at all — the standard open-loop
// truncation. each, when non-nil, sees every cycle's stats after the
// cycle runs, warmup included: cycles count from 0, and the window
// opens at cycle opts.Warmup. The run then keeps cycling past the
// window to opts.Warmup + budget, which only shard 0 of an observed
// point asks for (see Options.instrument): the instruments observe the
// point's full budget, and the probe's bins split it.
func measurePacketEngine(net *queuesim.Network, inputs, outputs int, pattern traffic.Pattern, opts Options, budget int, res *LatencyResult, each func(cycle int, cs queuesim.CycleStats)) error {
	next := trafficStep(pattern, inputs, outputs)
	var queuedSum int64
	var before queuesim.Totals
	pr := newProbe(opts.Probe, budget)
	var an *anatomy.Collector
	if opts.Anatomy != nil {
		// Unlike the probe, the collector attaches at cycle 0: its FIFO
		// mirrors must see every injection to stay in lockstep with the
		// engine's queues, and attributing a packet's full latency means
		// observing its whole life. The ledgers therefore include warmup
		// traffic — attribution has no truncation to hide behind.
		an = anatomy.New(*opts.Anatomy)
		net.SetAnatomy(an)
	}
	for cycle := 0; cycle < opts.Warmup+opts.Cycles; cycle++ {
		if cycle == opts.Warmup {
			net.ResetLatency()
			before = net.Totals()
			if pr != nil {
				// Attach at the measurement boundary so traces and heat
				// bins cover exactly the measured window.
				net.SetProbe(pr)
			}
		}
		cs, err := net.Cycle(next())
		if err != nil {
			return err
		}
		if each != nil {
			each(cycle, cs)
		}
		if cycle >= opts.Warmup {
			queuedSum += net.Queued()
		}
	}
	after := net.Totals()
	res.Injected = after.Injected - before.Injected
	res.Refused = after.Refused - before.Refused
	res.Delivered = after.Delivered - before.Delivered
	res.Dropped = after.Dropped - before.Dropped
	res.AvgQueued = float64(queuedSum) / float64(opts.Cycles)
	res.Histogram = net.Latency().Clone()
	res.fillQuantiles(inputs)
	for cycle := opts.Warmup + opts.Cycles; cycle < opts.Warmup+budget; cycle++ {
		if _, err := net.Cycle(next()); err != nil {
			return err
		}
	}
	if pr != nil {
		res.Observed = pr.Report()
	}
	if an != nil && opts.OnAnatomy != nil {
		opts.OnAnatomy(an.Report())
	}
	return nil
}

// MeasureLatency drives pattern through net's packet engine for
// opts.Warmup + opts.Cycles cycles and reports throughput and the
// latency distribution of the measurement window. The steady-state loop
// is allocation-free for bounded depths: the pattern refills the
// injection vector in place and the engine reuses all ring and
// histogram storage. Destinations are drawn in net's own output space;
// with the same seed and input count, an EDN and its dilated
// counterpart see the identical per-input injection realization (the
// traffic sources draw the inject coin before the destination), which
// is what "same replayed traffic" means across two networks with
// different output counts.
func MeasureLatency(net Net, pattern traffic.Pattern, opts Options) (LatencyResult, error) {
	if err := net.validate(); err != nil {
		return LatencyResult{}, err
	}
	opts = opts.withDefaults()
	return measureLatency(net, pattern, opts, opts.Cycles)
}

// measureLatency is MeasureLatency over validated, defaulted options,
// run on to budget cycles past warmup (see measurePacketEngine).
func measureLatency(net Net, pattern traffic.Pattern, opts Options, budget int) (LatencyResult, error) {
	eng, err := net.engine(opts.Factory)
	if err != nil {
		return LatencyResult{}, err
	}
	res := LatencyResult{
		Pattern: pattern.Name(),
		Depth:   eng.Depth(),
		Policy:  eng.Policy(),
		Cycles:  opts.Cycles,
		Shards:  1,
	}
	res.Config, res.Dilated = net.label()
	inputs, outputs := net.ports()
	if err := measurePacketEngine(eng, inputs, outputs, pattern, opts, budget, &res, nil); err != nil {
		return LatencyResult{}, err
	}
	return res, nil
}

// LoadPattern builds the traffic source for one offered load; the
// SaturationSweep calls it once per (load, shard) with an independent
// RNG. Nil selects uniform iid traffic at the given rate.
type LoadPattern func(load float64, rng *xrand.Rand) traffic.Pattern

// UniformLoad is the default LoadPattern: iid uniform traffic.
func UniformLoad(load float64, rng *xrand.Rand) traffic.Pattern {
	return traffic.Uniform{Rate: load, Rng: rng}
}

// BurstyLoad returns a LoadPattern of Markov on/off sources with the
// given mean burst length, tuned so the long-run offered load matches
// the sweep's load axis — the apples-to-apples bursty counterpart of
// UniformLoad. Near saturation the requested burst length cannot be
// honored at the requested load (the solved ON-transition probability
// would exceed 1), so the source pins POn at 1 and lengthens the bursts
// to load/(1-load) instead — the load axis stays exact, which is what
// the sweep compares against.
func BurstyLoad(meanBurst float64) LoadPattern {
	if meanBurst < 1 {
		meanBurst = 1
	}
	return func(load float64, rng *xrand.Rand) traffic.Pattern {
		if load >= 1 {
			return traffic.Uniform{Rate: 1, Rng: rng} // saturated: always on
		}
		// duty = pOn/(pOn+pOff) = load (Rate 1 while ON) => pOn solved:
		pOff := 1 / meanBurst
		pOn := load * pOff / (1 - load)
		if pOn > 1 {
			pOn = 1
			pOff = (1 - load) / load // keep duty exactly == load
		}
		return &traffic.MarkovOnOff{Rate: 1, POn: pOn, POff: pOff, Rng: rng}
	}
}

// SaturationSweep measures one LatencyResult per offered load: the
// latency-vs-load curve whose knee is the network's saturation
// throughput. Each load point splits opts.Cycles across `shards`
// fully independent runs — own engine, own traffic source, seed
// derived from (opts.Seed, load index) — executed in parallel and
// merged exactly (counter sums and histogram merges). Results are
// deterministic for a fixed (seed, shards) pair, so sweeping an EDN and
// its dilated counterpart under the same Options drives both with
// identical per-input injection replays — the measured two-sided form
// of the paper's equal-redundancy comparison, tails included. shards
// <= 0 selects GOMAXPROCS; src nil selects UniformLoad.
func SaturationSweep(net Net, loads []float64, src LoadPattern, opts Options, shards int) ([]LatencyResult, error) {
	opts, shards, err := prepare(net, opts, shards, true)
	if err != nil {
		return nil, err
	}
	results := make([]LatencyResult, 0, len(loads))
	for i, load := range loads {
		merged, err := saturationPoint(net, load, i, src, opts, shards)
		if err != nil {
			return nil, err
		}
		results = append(results, merged)
	}
	return results, nil
}

// runShards is the one scheduler of every sharded measurement. It
// splits opts.Cycles across shards — shard w gets Cycles/shards cycles
// plus one of the remainder — and runs fn(w, cycles) for every shard
// with a non-zero share, each on its own goroutine. Each shard is
// reported as a "shard" stage. It returns the first shard error in
// shard order; a shard's panic becomes its error, with the panic value
// and stack. Keeping the split in one place keeps the shard seeding
// pairing between EDN and dilated sweeps identical everywhere. The
// lifetime families pass a budget of shards x Epochs x EpochCycles,
// so every shard runs the whole schedule.
func runShards(opts Options, shards int, fn func(w, cycles int) error) error {
	per, extra := opts.Cycles/shards, opts.Cycles%shards
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for w := range shards {
		cycles := per
		if w < extra {
			cycles++
		}
		if cycles == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("simulate: shard %d panicked: %v\n%s", w, r, debug.Stack())
				}
			}()
			start := time.Now()
			errs[w] = fn(w, cycles)
			opts.stage("shard", w, cycles, start)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pointSeeds derives the shard seeds of point index from (seed, index)
// up front, so the assignment does not depend on scheduling. Saturation
// and closed-loop points share it: the same Options give an EDN and its
// dilated counterpart the same seeds, hence identical per-input
// injection replays, and seeds[0], the seed of shard 0 and of its
// instruments, does not depend on the shard count.
func pointSeeds(seed uint64, index, shards int) []uint64 {
	root := xrand.New(seed ^ uint64(index+1)*0x9e3779b97f4a7c15)
	seeds := make([]uint64, shards)
	for i := range seeds {
		seeds[i] = root.Uint64() | 1
	}
	return seeds
}

// saturationPoint measures point `index` of a saturation sweep: one
// run per shard under pointSeeds, shard 0 carrying the instruments
// (Options.instrument), merged by mergeLatency. SaturationSweep and
// SaturationPoint share it, so a streamed point is the batch sweep's
// point by construction. Callers must have run prepare.
func saturationPoint(net Net, load float64, index int, src LoadPattern, opts Options, shards int) (LatencyResult, error) {
	if src == nil {
		src = UniformLoad
	}
	seeds := pointSeeds(opts.Seed, index, shards)
	parts := make([]LatencyResult, shards)
	shard, finish := opts.instrument(func(w int, o Options, budget int) (err error) {
		parts[w], err = measureLatency(net, src(load, xrand.New(seeds[w])), o, budget)
		return err
	})
	if err := runShards(opts, shards, shard); err != nil {
		return LatencyResult{}, err
	}
	inputs, _ := net.ports()
	merged, err := mergeLatency(parts, inputs, opts)
	if err != nil {
		return LatencyResult{}, err
	}
	finish()
	merged.Observed = parts[0].Observed
	return merged, nil
}

// mergeLatency is the one shard merge of saturation and availability
// points: it skips shards that did not run, adopts the first run's
// labels, sums the counters, weights the mean occupancy by cycles,
// merges the histograms exactly, derives the summary fields and
// reports the "merge" stage.
func mergeLatency(parts []LatencyResult, inputs int, opts Options) (LatencyResult, error) {
	start := time.Now()
	var merged LatencyResult
	var queuedWeighted float64
	for i := range parts {
		p := &parts[i]
		if p.Cycles == 0 && p.Histogram == nil {
			continue
		}
		queuedWeighted += p.AvgQueued * float64(p.Cycles)
		if merged.Histogram == nil {
			merged = *p
			merged.Histogram = p.Histogram.Clone()
			continue
		}
		merged.Cycles += p.Cycles
		merged.Shards++
		merged.Injected += p.Injected
		merged.Refused += p.Refused
		merged.Delivered += p.Delivered
		merged.Dropped += p.Dropped
		if err := merged.Histogram.Merge(p.Histogram); err != nil {
			return LatencyResult{}, err
		}
	}
	if merged.Cycles > 0 {
		merged.AvgQueued = queuedWeighted / float64(merged.Cycles)
	}
	merged.fillQuantiles(inputs)
	opts.stage("merge", -1, 0, start)
	return merged, nil
}

// DrainResult reports a closed-loop drain experiment: every input
// starts loaded with Q packets and the network runs until all are
// delivered.
type DrainResult struct {
	Config  topology.Config
	Dilated dilated.Config // set instead of Config for dilated drains
	Q       int            // packets preloaded per input
	Cycles  int64          // cycles until the last delivery
	// Latency distribution over all delivered packets, measured from
	// network injection to delivery (time spent waiting in the source
	// queue is not included).
	LatencyMean float64
	LatencyP95  float64
	Histogram   *stats.Histogram
}

// Network names the drained network: the EDN configuration, or the
// dilated one for dilated drains.
func (r DrainResult) Network() string { return networkName(r.Config, r.Dilated) }

// DrainPermutations preloads every input with q packets — packet k of
// every input drawn from an independent random permutation, the
// Section 5.1 workload of an RA-EDN cluster with q processors per port
// — and runs the network closed-loop (each input re-offers its next
// packet as soon as the network can accept it) until everything is
// delivered. The returned cycle count is the measured counterpart of
// analytic.ExpectedPermutationTime:
//
//   - Depth 0 + Backpressure is exactly the model's regime: an
//     unbuffered single-cycle network in which blocked messages are
//     resubmitted until accepted.
//   - Depth >= 1 / Unbounded quantifies how much interstage buffering
//     shortens the drain below the unbuffered baseline.
//
// The workload needs a square network (permutations over the ports),
// which every dilated delta is. At d=1 the dilated delta and the square
// EDN(b,b,1,l) are the same wiring, so their drains agree bit for bit
// under the same seed.
func DrainPermutations(net Net, q int, opts Options) (DrainResult, error) {
	if err := net.validate(); err != nil {
		return DrainResult{}, err
	}
	inputs, outputs := net.ports()
	if inputs != outputs {
		return DrainResult{}, fmt.Errorf("simulate: permutation drain needs a square network, got %v (%d x %d)", net, inputs, outputs)
	}
	if q < 1 {
		return DrainResult{}, fmt.Errorf("simulate: q=%d packets per input must be positive", q)
	}
	opts = opts.withDefaults()
	if _, policy := net.regime(); policy == queuesim.Drop {
		return DrainResult{}, fmt.Errorf("simulate: a drain needs the lossless Backpressure policy")
	}
	eng, err := net.engine(opts.Factory)
	if err != nil {
		return DrainResult{}, err
	}
	res, err := drainPermutations(eng, inputs, q, opts.Seed)
	if err != nil {
		return DrainResult{}, err
	}
	res.Config, res.Dilated = net.label()
	return res, nil
}

// drainPermutations is the engine-agnostic permutation drain: preload
// q permutations and run the resubmission loop until everything is
// delivered.
func drainPermutations(net *queuesim.Network, inputs, q int, seed uint64) (DrainResult, error) {
	rng := xrand.New(seed)
	// queue[i] holds input i's packets in offer order: one entry from
	// each of q independent permutations.
	queue := make([][]int, inputs)
	perm := make([]int, inputs)
	for k := 0; k < q; k++ {
		rng.PermInto(perm)
		for i, d := range perm {
			queue[i] = append(queue[i], d)
		}
	}
	total := int64(q) * int64(inputs)
	// The closed loop cannot take longer than every packet being
	// serialized through one output, with generous headroom for the
	// pipeline; use it as the runaway guard.
	maxCycles := int64(q*inputs)*int64(net.Stages()+1) + 1000
	cycles, err := drain(net, queue, total, maxCycles, nil)
	if err != nil {
		return DrainResult{}, err
	}
	if net.Totals().Delivered < total {
		return DrainResult{}, fmt.Errorf("simulate: drain of %d packets not finished after %d cycles", total, maxCycles)
	}
	h := net.Latency().Clone()
	return DrainResult{
		Q:           q,
		Cycles:      cycles,
		LatencyMean: h.Mean(),
		LatencyP95:  h.Quantile(0.95),
		Histogram:   h,
	}, nil
}

// drain is the one resubmission loop: it offers each input's queued
// packets in order, the next one whenever the input can take it (a
// Backpressure engine retains a blocked packet at its input and
// resubmits it every cycle), and cycles net until left packets have
// been delivered or maxCycles cycles have run. each, when non-nil, sees
// every cycle's stats; its error ends the loop. It returns the cycles
// run.
func drain(net *queuesim.Network, queue [][]int, left, maxCycles int64, each func(queuesim.CycleStats) error) (int64, error) {
	next := make([]int, len(queue)) // next packet index to offer per input
	dest := make([]int, len(queue))
	var cycles int64
	for ; left > 0 && cycles < maxCycles; cycles++ {
		for i := range dest {
			if next[i] < len(queue[i]) && net.InputFree(i) {
				dest[i] = queue[i][next[i]]
				next[i]++
			} else {
				dest[i] = queuesim.NoRequest
			}
		}
		cs, err := net.Cycle(dest)
		if err == nil && each != nil {
			err = each(cs)
		}
		if err != nil {
			return cycles, err
		}
		left -= int64(cs.Delivered)
	}
	return cycles, nil
}
