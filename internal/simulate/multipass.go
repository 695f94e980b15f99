package simulate

import (
	"fmt"

	"edn/internal/core"
	"edn/internal/switchfab"
	"edn/internal/topology"
)

// MultipassResult reports how many network passes a fixed request set
// needs: requests blocked in one pass are re-offered in the next until
// every message is delivered. This is the practical question behind
// Section 3.2.1 — an SIMD machine repeats the cycle until the
// permutation completes.
type MultipassResult struct {
	Config    topology.Config
	Passes    int
	Delivered []int // messages delivered in each pass
}

// RouteMultipass delivers the request vector dest (destination per input,
// core.NoRequest for idle) over repeated passes. maxPasses guards
// pathological inputs (0 means a generous default).
func RouteMultipass(cfg topology.Config, dest []int, factory switchfab.ArbiterFactory, maxPasses int) (MultipassResult, error) {
	net, err := core.NewNetwork(cfg, factory)
	if err != nil {
		return MultipassResult{}, err
	}
	if len(dest) != cfg.Inputs() {
		return MultipassResult{}, fmt.Errorf("simulate: %d requests for %d inputs", len(dest), cfg.Inputs())
	}
	if maxPasses <= 0 {
		maxPasses = 16 * cfg.Inputs()
	}

	pending := append([]int(nil), dest...)
	remaining := 0
	for _, d := range pending {
		if d != core.NoRequest {
			remaining++
		}
	}
	res := MultipassResult{Config: cfg}
	out := make([]core.Outcome, cfg.Inputs())
	for remaining > 0 {
		if res.Passes >= maxPasses {
			return res, fmt.Errorf("simulate: %v did not drain after %d passes (%d left)", cfg, res.Passes, remaining)
		}
		cs, err := net.RouteCycleInto(pending, out)
		if err != nil {
			return res, err
		}
		if cs.Delivered == 0 && cs.Offered > 0 {
			// A non-empty offered set always delivers at least one message
			// (the highest-priority request wins everywhere); this is a
			// logic guard, not a reachable state.
			return res, fmt.Errorf("simulate: pass %d delivered nothing with %d offered", res.Passes, cs.Offered)
		}
		for i, o := range out {
			if o.Delivered() {
				pending[i] = core.NoRequest
			}
		}
		remaining -= cs.Delivered
		res.Delivered = append(res.Delivered, cs.Delivered)
		res.Passes++
	}
	return res, nil
}
