package simulate

import (
	"fmt"
	"runtime"

	"edn/internal/closedloop"
)

// normalizeShards is the one shard-count policy of every sharded entry
// point: negative counts are an error (they used to be silently
// reinterpreted, with behavior differing by entry point), zero selects
// GOMAXPROCS, and a positive count is clamped to the cycle budget when
// one applies (a shard needs at least one cycle to run; pass
// cycles <= 0 for budget-free sweeps such as the lifetime family,
// whose shards are whole independent lifetimes).
func normalizeShards(shards, cycles int) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("simulate: shards %d is negative (0 selects GOMAXPROCS)", shards)
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cycles > 0 && shards > cycles {
		shards = cycles
	}
	return shards, nil
}

// prepare is the common head of every sharded entry point: validate
// net, apply the Options defaults, and normalize shards — clamped to
// the cycle budget when budgeted, unclamped for the lifetime family.
func prepare(net Net, opts Options, shards int, budgeted bool) (Options, int, error) {
	if err := net.validate(); err != nil {
		return opts, 0, err
	}
	opts = opts.withDefaults()
	budget := 0
	if budgeted {
		budget = opts.Cycles
	}
	shards, err := normalizeShards(shards, budget)
	return opts, shards, err
}

// SaturationPoint measures one load point of a saturation sweep: the
// LatencyResult that SaturationSweep(net, loads, ...) would place at
// loads[index], bit for bit — shard seeds derive from (opts.Seed,
// index) exactly as in the batch sweep. It exists for incremental
// consumers (the serve layer streams sweep points as they complete)
// and for re-measuring a single point of a published curve.
func SaturationPoint(net Net, load float64, index int, src LoadPattern, opts Options, shards int) (LatencyResult, error) {
	opts, shards, err := prepare(net, opts, shards, true)
	if err != nil {
		return LatencyResult{}, err
	}
	return saturationPoint(net, load, index, src, opts, shards)
}

// ClosedLoopPoint measures one demand-rate point of a closed-loop
// sweep: the ClosedLoopResult that MeasureClosedLoop(net, rates, ...)
// would place at rates[index], bit for bit.
func ClosedLoopPoint(net Net, rate float64, index int, lo closedloop.Options, opts Options, shards int) (ClosedLoopResult, error) {
	opts, shards, err := prepare(net, opts, shards, true)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	return closedLoopPoint(net, rate, index, lo, opts, shards)
}

// AvailabilityPoint measures one fault fraction of a degradation
// sweep: the AvailabilityResult that AvailabilitySweep would produce
// for fraction f under the same Options, bit for bit. The per-shard
// fault plans and traffic seeds derive from opts.Seed alone (never
// from the fraction axis), so evaluating fractions one at a time
// replays the identical failure stories the batch sweep grows.
func AvailabilityPoint(net Net, aopts AvailabilityOptions, f float64, src LoadPattern, opts Options, shards int) (AvailabilityResult, error) {
	aopts.Fractions = []float64{f}
	pts, err := AvailabilitySweep(net, aopts, src, opts, shards)
	if err != nil {
		return AvailabilityResult{}, err
	}
	return pts[0], nil
}
