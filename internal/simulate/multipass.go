package simulate

import (
	"fmt"

	"edn/internal/queuesim"
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
// queuesim.NoRequest for idle) over repeated passes: the drain loop over
// one packet per requesting input on the depth-0 Backpressure engine,
// which retains a blocked request at its input and re-offers it the
// next pass. maxPasses guards pathological inputs (0 means a generous
// default).
func RouteMultipass(cfg topology.Config, dest []int, factory switchfab.ArbiterFactory, maxPasses int) (MultipassResult, error) {
	net, err := queuesim.New(cfg, queuesim.Options{Factory: factory})
	if err != nil {
		return MultipassResult{}, err
	}
	if len(dest) != cfg.Inputs() {
		return MultipassResult{}, fmt.Errorf("simulate: %d requests for %d inputs", len(dest), cfg.Inputs())
	}
	if maxPasses <= 0 {
		maxPasses = 16 * cfg.Inputs()
	}

	queue := make([][]int, len(dest))
	remaining := 0
	for i, d := range dest {
		if d != queuesim.NoRequest {
			queue[i] = dest[i : i+1]
			remaining++
		}
	}
	res := MultipassResult{Config: cfg}
	_, err = drain(net, queue, int64(remaining), int64(maxPasses), func(cs queuesim.CycleStats) error {
		if cs.Delivered == 0 {
			// A non-empty offered set always delivers at least one
			// message (the highest-priority request wins everywhere);
			// this is a logic guard, not a reachable state.
			return fmt.Errorf("simulate: pass %d delivered nothing with %d offered", res.Passes, remaining)
		}
		remaining -= cs.Delivered
		res.Delivered = append(res.Delivered, cs.Delivered)
		res.Passes++
		return nil
	})
	if err == nil && remaining > 0 {
		err = fmt.Errorf("simulate: %v did not drain after %d passes (%d left)", cfg, res.Passes, remaining)
	}
	return res, err
}
