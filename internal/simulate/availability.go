package simulate

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// AvailabilityOptions configures a degraded-mode sweep: which component
// population fails, how severely, and under what offered load the
// surviving network is measured.
type AvailabilityOptions struct {
	// Fractions is the fault-fraction axis (each component of the mode's
	// population dies with this marginal probability). Required.
	Fractions []float64
	// Mode selects the failing population (default WireFaults, the
	// regime where Theorem 2's bucket multipath pays off directly). A
	// dilated delta fails only by sub-wires, its entire redundancy
	// budget, so it takes WireFaults alone; any other mode is an error.
	Mode faults.Mode
	// Load is the offered load per input during measurement (default 1:
	// saturation, where degradation is starkest).
	Load float64
	// WithExpected also evaluates the analytic per-wire degradation
	// recursion (faults.ExpectedUniformBandwidth) on every sampled fault
	// set, over the sampled masks of either fabric: one model, with the
	// EDN's and the dilated delta's healthy closed forms as its
	// empty-mask values. The recursion models the memoryless
	// circuit-switched cycle, so it is exact-model for Depth 0/1 Drop
	// and an optimistic bound for buffered configurations. It is
	// O(switch width^2 * wires) per sample — cheap for the geometries
	// this repository sweeps, but off by default.
	WithExpected bool
}

func (o AvailabilityOptions) withDefaults() (AvailabilityOptions, error) {
	if len(o.Fractions) == 0 {
		return o, fmt.Errorf("simulate: availability sweep needs at least one fault fraction")
	}
	for _, f := range o.Fractions {
		if err := faults.CheckFraction(f); err != nil {
			return o, err
		}
	}
	if o.Load <= 0 {
		o.Load = 1
	}
	return o, nil
}

// AvailabilityResult is one point of the degradation curve of either
// network: its delivered bandwidth, reachability and latency tail at
// one fault fraction, averaged over the sweep's independent shard
// samples. Config or Dilated names the measured network.
type AvailabilityResult struct {
	Config        topology.Config // zero for dilated runs
	Dilated       dilated.Config  `json:",omitzero"` // zero, and left out of the JSON, for EDN runs
	FaultFraction float64
	Mode          faults.Mode
	Depth         int
	Policy        queuesim.Policy
	Cycles        int // measured cycles summed across shards
	Shards        int

	// Mean fault census over the shard samples. DeadWires counts dead
	// stage-input and stage-output wires; a dilated delta's are its dead
	// sub-wires, and its switches and inputs never fail.
	DeadSwitches float64
	DeadWires    float64
	// ReachableFraction is the mean fraction of output terminals still
	// connected to at least one live input; LiveInputFraction the mean
	// fraction of inputs that can still inject.
	ReachableFraction float64
	LiveInputFraction float64

	// Packet counters over the measurement window, summed across shards.
	Injected  int64
	Refused   int64
	Delivered int64
	Dropped   int64

	// OfferedRate is offered packets per input per cycle; Throughput is
	// delivered packets per cycle (ThroughputPerInput normalizes by the
	// full input count, dead inputs included — the machine's view);
	// AcceptedFraction is delivered over offered.
	OfferedRate        float64
	Throughput         float64
	ThroughputPerInput float64
	AcceptedFraction   float64

	// Latency quantiles in cycles over packets retired in the window.
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	LatencyMax  float64
	// ExpectedThroughput is the analytic recursion's prediction (mean
	// over shard samples); zero unless AvailabilityOptions.WithExpected.
	ExpectedThroughput float64
	// Histogram is the full merged latency distribution.
	Histogram *stats.Histogram
}

// Network names the measured network.
func (r AvailabilityResult) Network() string { return networkName(r.Config, r.Dilated) }

// String renders the headline numbers.
func (r AvailabilityResult) String() string {
	return fmt.Sprintf("%s %v f=%.3f: thr=%.2f/cycle (%.3f/input) reach=%.3f p99=%.0f",
		r.Network(), r.Mode, r.FaultFraction, r.Throughput, r.ThroughputPerInput,
		r.ReachableFraction, r.LatencyP99)
}

// AvailabilitySweep measures one AvailabilityResult per fault fraction:
// the graceful-degradation curve of an EDN or a dilated delta as its
// components die (a dilated delta's sub-wires, drawn by
// dilatedsim.SubWires). Each shard owns one nested fault plan — rising
// fractions grow one fixed failure story per shard instead of
// resampling the world, and the traffic stream is replayed identically
// at every fraction — so the sweep is a paired comparison and the
// delivered-bandwidth curve degrades monotonically up to Monte-Carlo
// noise. Shards are fully independent runs (own engine, own fault
// sample, own traffic source) executed in parallel and merged exactly,
// the run-level pattern of SaturationSweep; results are deterministic
// for a fixed (seed, shards) pair. shards <= 0 selects GOMAXPROCS; src
// nil selects uniform iid traffic at aopts.Load.
//
// The per-shard fault plans and traffic seeds are drawn once, fixed
// across the whole fraction axis: fraction f2 > f1 sees a superset of
// f1's faults under an identical traffic replay. The draws depend only
// on (opts.Seed, shards) — never on the fraction — which is what lets
// AvailabilityPoint reconstruct a batch sweep's failure stories one
// fraction at a time, and the traffic seeds are drawn identically for
// both networks, so an EDN and its counterpart swept under the same
// Options see identical per-input injection realizations.
//
// The network's queue options pick the engine regime. Fault sets that
// kill output terminals (SwitchFaults/MixedFaults reaching the crossbar
// stage) pair naturally with the Drop policy: under Backpressure a
// packet addressed to a dead terminal parks at the crossbar head
// forever and head-of-line blocks everything behind it — a real failure
// mode worth measuring, but a collapsed curve rather than a degradation
// curve.
func AvailabilitySweep(net Net, aopts AvailabilityOptions, src LoadPattern, opts Options, shards int) ([]AvailabilityResult, error) {
	opts, shards, err := prepare(net, opts, shards, true)
	if err != nil {
		return nil, err
	}
	if aopts, err = aopts.withDefaults(); err != nil {
		return nil, err
	}
	if err := net.checkFaults(lifecycle.Spec{Mode: aopts.Mode}); err != nil {
		return nil, err
	}
	if src == nil {
		src = UniformLoad
	}
	// One fabric for the whole sweep: every shard's masks compile over
	// it and every faulted engine shares it.
	if net, err = net.withTables(); err != nil {
		return nil, err
	}
	root := xrand.New(opts.Seed ^ 0xaf63bd4c8601b7df)
	plans := make([]faultPlan, shards)
	trafficSeeds := make([]uint64, shards)
	for w := range plans {
		plans[w] = net.faultPlan(aopts.Mode, xrand.New(root.Uint64()|1))
		trafficSeeds[w] = root.Uint64() | 1
	}
	results := make([]AvailabilityResult, 0, len(aopts.Fractions))
	for _, f := range aopts.Fractions {
		r, err := availabilityPoint(net, aopts, f, src, opts, shards, plans, trafficSeeds)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// availabilityPoint measures one fault fraction over pre-drawn shard
// plans: bare shards through runShards, merged by mergeLatency, with
// the census averaged over the shards that ran (runShards skips the
// rest, whose census stays zero).
func availabilityPoint(net Net, aopts AvailabilityOptions, f float64, src LoadPattern, opts Options, shards int, plans []faultPlan, trafficSeeds []uint64) (AvailabilityResult, error) {
	parts := make([]LatencyResult, shards)
	censuses := make([]faultCensus, shards)
	err := runShards(opts, shards, nil, func(w, cycles int) error {
		m, err := plans[w](f)
		if err != nil {
			return err
		}
		censuses[w] = census(net, m)
		if aopts.WithExpected {
			censuses[w].expected = faults.ExpectedUniformBandwidth(m, aopts.Load)
		}
		parts[w], err = MeasureLatency(net.withFaults(m), src(aopts.Load, xrand.New(trafficSeeds[w])), opts.bare(cycles))
		return err
	})
	if err != nil {
		return AvailabilityResult{}, err
	}
	inputs, _ := net.ports()
	r, err := mergeLatency(parts, inputs, opts)
	if err != nil {
		return AvailabilityResult{}, err
	}
	var c faultCensus
	for _, s := range censuses {
		c.add(s)
	}
	if r.Shards > 0 {
		c.scale(float64(r.Shards))
	}
	res := AvailabilityResult{
		FaultFraction:      f,
		Mode:               aopts.Mode,
		Depth:              r.Depth,
		Policy:             r.Policy,
		Cycles:             r.Cycles,
		Shards:             r.Shards,
		DeadSwitches:       c.deadSwitches,
		DeadWires:          c.deadWires,
		ReachableFraction:  c.reachable,
		LiveInputFraction:  c.liveInputs,
		Injected:           r.Injected,
		Refused:            r.Refused,
		Delivered:          r.Delivered,
		Dropped:            r.Dropped,
		OfferedRate:        r.OfferedRate,
		Throughput:         r.Throughput,
		ThroughputPerInput: r.Throughput / float64(inputs),
		AcceptedFraction:   r.AcceptedFraction,
		LatencyMean:        r.LatencyMean,
		LatencyP50:         r.LatencyP50,
		LatencyP95:         r.LatencyP95,
		LatencyP99:         r.LatencyP99,
		LatencyMax:         r.LatencyMax,
		ExpectedThroughput: c.expected,
		Histogram:          r.Histogram,
	}
	res.Config, res.Dilated = net.label()
	return res, nil
}
