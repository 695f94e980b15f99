// Package mimd models the Section 4 shared-memory multiprocessor: one
// processor per network input, one memory module per output, connected by
// an EDN. Active processors issue fresh requests with probability r each
// cycle; a processor whose request is blocked waits and resubmits the
// same request every cycle until it is accepted (the Figure 10 Markov
// chain). The package measures the resulting steady state with the
// cycle-level simulator so the Equation 7-11 fixed point can be
// cross-checked.
package mimd

import (
	"fmt"

	"edn/internal/core"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Options configures a simulation run.
type Options struct {
	Cycles  int    // measured cycles (default 2000)
	Warmup  int    // cycles to reach steady state before measuring (default 200)
	Seed    uint64 // RNG seed (default 1)
	Factory switchfab.ArbiterFactory
	// PersistentDestinations controls what a waiting processor resubmits.
	// The paper's analysis assumes resubmitted requests re-address the
	// memory modules uniformly (Section 4), which is the default here
	// (false): each retry draws a fresh destination. Setting true makes a
	// blocked processor retry the *same* destination until accepted — the
	// physically faithful behavior — which builds persistent conflicts the
	// Markov model does not capture; the test suite quantifies the gap.
	PersistentDestinations bool
}

func (o Options) withDefaults() Options {
	if o.Cycles <= 0 {
		o.Cycles = 2000
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is the measured steady state of the processor-memory system.
type Result struct {
	Config topology.Config
	R      float64 // fresh request probability of an active processor

	PA            float64 // accepted/offered: the measured PA'(r)
	EffectiveRate float64 // measured r': offered requests per input per cycle
	QActive       float64 // measured fraction of processors in the active state
	QWaiting      float64 // measured fraction waiting (= 1 - QActive)
	Bandwidth     float64 // accepted requests per cycle
	AvgWaitCycles float64 // mean cycles a satisfied request spent blocked
	Cycles        int
}

// Efficiency returns the measured Equation 11 efficiency: the fraction of
// time processors spend active versus an ideal never-blocking memory.
func (r Result) Efficiency() float64 { return r.QActive }

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%v r=%.3g: PA'=%.4f r'=%.4f qA=%.4f BW=%.1f wait=%.2f cycles",
		r.Config, r.R, r.PA, r.EffectiveRate, r.QActive, r.Bandwidth, r.AvgWaitCycles)
}

// Simulate runs the resubmission system to steady state and measures it.
func Simulate(cfg topology.Config, r float64, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if r < 0 || r > 1 {
		return Result{}, fmt.Errorf("mimd: request rate %g out of [0,1]", r)
	}
	opts = opts.withDefaults()
	net, err := core.NewNetwork(cfg, opts.Factory)
	if err != nil {
		return Result{}, err
	}
	rng := xrand.New(opts.Seed)

	inputs := cfg.Inputs()
	outputs := cfg.Outputs()
	// waitingDest[i] >= 0 means processor i is waiting to deliver that
	// destination; core.NoRequest means active.
	waitingDest := make([]int, inputs)
	waitStart := make([]int, inputs)
	for i := range waitingDest {
		waitingDest[i] = core.NoRequest
	}
	dest := make([]int, inputs)
	out := make([]core.Outcome, inputs)

	var offered, accepted, activeCount int
	var waitAcc stats.Accumulator
	res := Result{Config: cfg, R: r, Cycles: opts.Cycles}

	for cycle := 0; cycle < opts.Warmup+opts.Cycles; cycle++ {
		measuring := cycle >= opts.Warmup
		for i := range dest {
			if waitingDest[i] != core.NoRequest {
				if opts.PersistentDestinations {
					dest[i] = waitingDest[i] // retry the same module
				} else {
					// Paper assumption: retries re-address memory uniformly.
					dest[i] = rng.Intn(outputs)
					waitingDest[i] = dest[i]
				}
				continue
			}
			if measuring {
				activeCount++
			}
			if rng.Bool(r) {
				dest[i] = rng.Intn(outputs)
			} else {
				dest[i] = core.NoRequest
			}
		}
		cs, err := net.RouteCycleInto(dest, out)
		if err != nil {
			return Result{}, err
		}
		if measuring {
			offered += cs.Offered
			accepted += cs.Delivered
		}
		for i, o := range out {
			switch {
			case dest[i] == core.NoRequest:
				// stayed idle
			case o.Delivered():
				if waitingDest[i] != core.NoRequest && measuring {
					waitAcc.Add(float64(cycle - waitStart[i]))
				} else if measuring {
					waitAcc.Add(0)
				}
				waitingDest[i] = core.NoRequest
			default:
				if waitingDest[i] == core.NoRequest {
					waitingDest[i] = dest[i]
					waitStart[i] = cycle
				}
			}
		}
	}

	total := float64(opts.Cycles * inputs)
	if offered > 0 {
		res.PA = float64(accepted) / float64(offered)
	} else {
		res.PA = 1
	}
	res.EffectiveRate = float64(offered) / total
	res.QActive = float64(activeCount) / total
	res.QWaiting = 1 - res.QActive
	res.Bandwidth = float64(accepted) / float64(opts.Cycles)
	res.AvgWaitCycles = waitAcc.Mean()
	return res, nil
}
