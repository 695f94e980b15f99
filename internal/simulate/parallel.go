package simulate

import (
	"runtime"
	"sync"

	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// MeasureUniformPAParallel is the multi-core form of MeasureUniformPA:
// the requested cycle budget is split across `workers` fully independent
// runs — each with its own network instance and a seed derived from
// opts.Seed — whose aggregates are merged exactly (Welford merge for the
// confidence interval). Monte-Carlo cycles are embarrassingly parallel,
// so run-level sharding is how this repository uses multiple cores.
//
// Results are deterministic for a fixed (seed, workers) pair; changing
// the worker count changes the substreams and therefore the noise, not
// the distribution.
func MeasureUniformPAParallel(cfg topology.Config, r float64, opts Options, workers int) (Result, error) {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Cycles {
		workers = opts.Cycles
	}
	if workers <= 1 {
		return MeasureUniformPA(cfg, r, opts)
	}

	// Derive one independent seed per worker up front, so the assignment
	// does not depend on scheduling.
	root := xrand.New(opts.Seed)
	seeds := make([]uint64, workers)
	for i := range seeds {
		seeds[i] = root.Uint64() | 1
	}

	type partial struct {
		res Result
		err error
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	per := opts.Cycles / workers
	extra := opts.Cycles % workers
	for w := 0; w < workers; w++ {
		cycles := per
		if w < extra {
			cycles++
		}
		if cycles == 0 {
			continue
		}
		wg.Add(1)
		go func(w, cycles int) {
			defer wg.Done()
			sub := opts
			sub.Cycles = cycles
			sub.Seed = seeds[w]
			sub.Probe = nil // probes observe sequential runs only
			parts[w].res, parts[w].err = measureUniformWithAccumulator(cfg, r, sub)
		}(w, cycles)
	}
	wg.Wait()

	merged := Result{
		Config:          cfg,
		Cycles:          opts.Cycles,
		BlockedPerStage: make([]int, cfg.Stages()),
	}
	var paAcc stats.Accumulator
	var offered, delivered float64
	for w := range parts {
		p := &parts[w]
		if p.err != nil {
			return Result{}, p.err
		}
		if p.res.Cycles == 0 {
			continue
		}
		merged.Pattern = p.res.Pattern
		offered += p.res.OfferedRate * float64(p.res.Cycles*cfg.Inputs())
		delivered += p.res.Bandwidth * float64(p.res.Cycles)
		for s, b := range p.res.BlockedPerStage {
			merged.BlockedPerStage[s] += b
		}
		paAcc.Merge(p.res.paAcc)
	}
	if offered > 0 {
		merged.PA = delivered / offered
	} else {
		merged.PA = 1
	}
	merged.PACI = paAcc.CI95()
	merged.Bandwidth = delivered / float64(opts.Cycles)
	merged.OfferedRate = offered / float64(opts.Cycles*cfg.Inputs())
	return merged, nil
}

// measureUniformWithAccumulator mirrors MeasureUniformPA but keeps the
// per-cycle accumulator on the Result so merges stay exact.
func measureUniformWithAccumulator(cfg topology.Config, r float64, opts Options) (Result, error) {
	rng := xrand.New(opts.Seed)
	res, acc, err := measurePA(cfg, traffic.Uniform{Rate: r, Rng: rng}, opts)
	if err != nil {
		return Result{}, err
	}
	res.paAcc = acc
	return res, nil
}
