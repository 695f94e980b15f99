package simd

import (
	"fmt"

	"edn/internal/core"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/xrand"
)

// RouteOptions configures a permutation-routing run.
type RouteOptions struct {
	Seed      uint64 // RNG seed (default 1)
	Scheduler Scheduler
	Factory   switchfab.ArbiterFactory
	// MaxCycles aborts a run that fails to drain (default 100 * q *
	// clusters — far beyond any sane completion time).
	MaxCycles int
}

func (o RouteOptions) withDefaults(sys System) RouteOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scheduler == nil {
		o.Scheduler = RandomScheduler{}
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 100 * sys.Q * sys.P()
	}
	return o
}

// RouteResult reports one permutation delivery.
type RouteResult struct {
	System    System
	Scheduler string
	Cycles    int   // network cycles until every message was delivered
	Delivered []int // messages delivered in each cycle
}

// RoutePermutation delivers the permutation perm over the system's N
// processors: PE i sends one message to PE perm[i]. Each cycle every
// cluster offers at most one undelivered message (per the schedule); the
// network routes the batch; winners retire. It returns the cycle count —
// the quantity Section 5.1 estimates as q/PA(1) + J.
func RoutePermutation(sys System, perm []int, opts RouteOptions) (RouteResult, error) {
	if err := sys.Validate(); err != nil {
		return RouteResult{}, err
	}
	if len(perm) != sys.N() {
		return RouteResult{}, fmt.Errorf("simd: permutation over %d PEs, want %d", len(perm), sys.N())
	}
	seen := make([]bool, sys.N())
	for i, v := range perm {
		if v < 0 || v >= sys.N() || seen[v] {
			return RouteResult{}, fmt.Errorf("simd: perm[%d]=%d is not a permutation of [0,%d)", i, v, sys.N())
		}
		seen[v] = true
	}
	opts = opts.withDefaults(sys)

	net, err := core.NewNetwork(sys.Network, opts.Factory)
	if err != nil {
		return RouteResult{}, err
	}
	rng := xrand.New(opts.Seed)

	p := sys.P()
	// pending[x] holds the destination ports of cluster x's undelivered
	// messages. The trailer digit (destination PE within the cluster)
	// cannot conflict — the 1-to-q demultiplexer is dedicated — so only
	// ports matter, exactly as Section 5.1 argues.
	pending := make([][]int, p)
	for i, v := range perm {
		x := sys.Cluster(i)
		pending[x] = append(pending[x], sys.Cluster(v))
	}

	res := RouteResult{System: sys, Scheduler: opts.Scheduler.Name()}
	remaining := sys.N()
	dest := make([]int, p)
	out := make([]core.Outcome, p)
	for cycle := 0; remaining > 0; cycle++ {
		if cycle >= opts.MaxCycles {
			return RouteResult{}, fmt.Errorf("simd: %v did not drain after %d cycles (%d messages left)", sys, cycle, remaining)
		}
		choice := opts.Scheduler.Pick(pending, rng)
		if len(choice) != p {
			return RouteResult{}, fmt.Errorf("simd: scheduler %q returned %d choices, want %d", opts.Scheduler.Name(), len(choice), p)
		}
		for x := 0; x < p; x++ {
			if choice[x] < 0 {
				dest[x] = core.NoRequest
				continue
			}
			if choice[x] >= len(pending[x]) {
				return RouteResult{}, fmt.Errorf("simd: scheduler %q chose message %d of %d in cluster %d", opts.Scheduler.Name(), choice[x], len(pending[x]), x)
			}
			dest[x] = pending[x][choice[x]]
		}
		cs, err := net.RouteCycleInto(dest, out)
		if err != nil {
			return RouteResult{}, err
		}
		for x := 0; x < p; x++ {
			if choice[x] < 0 || !out[x].Delivered() {
				continue
			}
			// Remove the delivered message (order within a cluster does not
			// matter; swap-delete keeps this O(1)).
			msgs := pending[x]
			msgs[choice[x]] = msgs[len(msgs)-1]
			pending[x] = msgs[:len(msgs)-1]
		}
		remaining -= cs.Delivered
		res.Delivered = append(res.Delivered, cs.Delivered)
		res.Cycles++
	}
	return res, nil
}

// MeasurePermutationTime routes `trials` random permutations and returns
// the accumulated cycle counts, for comparison against the analytic
// q/PA(1) + J estimate.
func MeasurePermutationTime(sys System, trials int, opts RouteOptions) (stats.Accumulator, error) {
	var acc stats.Accumulator
	if trials < 1 {
		return acc, fmt.Errorf("simd: trials=%d must be positive", trials)
	}
	opts = opts.withDefaults(sys)
	rng := xrand.New(opts.Seed)
	for t := 0; t < trials; t++ {
		perm := rng.Perm(sys.N())
		trialOpts := opts
		trialOpts.Seed = rng.Uint64() | 1
		res, err := RoutePermutation(sys, perm, trialOpts)
		if err != nil {
			return acc, err
		}
		acc.Add(float64(res.Cycles))
	}
	return acc, nil
}
