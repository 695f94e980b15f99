// Package core implements the paper's primary contribution as an
// executable artifact: the cycle-level, circuit-switched Expanded Delta
// Network of Section 2, seen one request batch at a time.
//
// One RouteCycle call models one network cycle: every request crosses
// the hyperbar stages at once, a bucket grants at most c requests, losers
// are dropped (circuit switched, no buffering), and survivors of the
// final c x c crossbar stage appear on their destination terminals —
// the Section 3.2 model behind Equation 4.
//
// The cycle itself is the unbuffered corner of the one packet engine:
// a Network is a per-request face over a depth-0 Drop
// internal/queuesim network, whose wave sweep does the routing. The
// face only translates the sweep's per-input verdicts into Outcomes and
// per-stage block counts, so it stays allocation-free in steady state
// and the Monte-Carlo harnesses in internal/simulate can run millions of
// cycles without touching the allocator.
package core

import (
	"fmt"

	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
)

// NoRequest marks an idle input in a request vector, and "not delivered"
// in an output assignment.
const NoRequest = queuesim.NoRequest

// Network is an instantiated EDN ready to route request batches. It is
// not safe for concurrent use; build one per goroutine (construction
// cost is dominated by the interstage tables, a small multiple of one
// wire-state slice).
type Network struct {
	q       *queuesim.Network
	liveIn  []bool // the current mask's input row; nil = all live
	faulted bool
	blocked []int // CycleStats.Blocked backing store
}

// NewNetwork builds a network for cfg. A nil factory selects the paper's
// priority arbitration.
func NewNetwork(cfg topology.Config, factory switchfab.ArbiterFactory) (*Network, error) {
	return NewNetworkWithFaults(cfg, factory, nil)
}

// NewNetworkWithFaults builds a network that routes around the
// components disabled by m (see internal/faults): grants only go to
// live candidate wires, a request whose whole bucket is dead is blocked
// at that stage, and a request arriving on a dead input is blocked at
// stage 1. A nil or empty mask is exactly NewNetwork.
func NewNetworkWithFaults(cfg topology.Config, factory switchfab.ArbiterFactory, m *faults.Masks) (*Network, error) {
	q, err := queuesim.New(cfg, queuesim.Options{Depth: 0, Policy: queuesim.Drop, Factory: factory})
	if err != nil {
		return nil, err
	}
	n := &Network{q: q, blocked: make([]int, cfg.Stages())}
	if err := n.UpdateFaults(m); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's availability masks in place: the next
// RouteCycle routes around exactly the components m disables, without
// rebuilding tables, scratch or arbiter state. A nil or empty mask
// restores the unmasked fast paths bit-for-bit. The swap allocates
// nothing. Masks must have been compiled for this network's
// configuration; on error the previous masks remain in effect. Not safe
// to call concurrently with RouteCycleInto.
func (n *Network) UpdateFaults(m *faults.Masks) error {
	if err := n.q.UpdateFaults(m); err != nil {
		return err
	}
	n.liveIn, n.faulted = m.LiveInputs(), !m.Empty()
	return nil
}

// Faulted reports whether the network routes under a non-empty fault
// mask.
func (n *Network) Faulted() bool { return n.faulted }

// SetProbe attaches (or with nil, detaches) a flight-recorder probe to
// the underlying engine: sampled requests are traced and stage heat is
// recorded in the engine's vocabulary (queuesim.ProbeMetrics), stamped
// with the engine's cycle clock. A nil probe restores the
// uninstrumented cycle bit-for-bit. Not safe to call concurrently with
// RouteCycleInto.
func (n *Network) SetProbe(p *probe.Probe) { n.q.SetProbe(p) }

// Config returns the network's configuration.
func (n *Network) Config() topology.Config { return n.q.Config() }

// Outcome reports the fate of one input's request in a cycle.
type Outcome struct {
	// Output is the network output terminal the request reached, or
	// NoRequest if the input was idle or the request was blocked.
	Output int
	// BlockedStage is the 1-based stage at which the request lost
	// arbitration, or 0 if it was idle or delivered.
	BlockedStage int
}

// Delivered reports whether the request reached an output.
func (o Outcome) Delivered() bool { return o.Output != NoRequest }

// CycleStats aggregates one RouteCycle call.
type CycleStats struct {
	Offered   int   // inputs carrying a request
	Delivered int   // requests that reached their destination
	Blocked   []int // Blocked[s-1] = requests dropped at stage s
}

// BlockedTotal returns the total number of dropped requests.
func (cs CycleStats) BlockedTotal() int {
	t := 0
	for _, b := range cs.Blocked {
		t += b
	}
	return t
}

// PA returns the cycle's empirical probability of acceptance
// (delivered/offered), or 1 for an idle cycle.
func (cs CycleStats) PA() float64 {
	if cs.Offered == 0 {
		return 1
	}
	return float64(cs.Delivered) / float64(cs.Offered)
}

// RouteCycle routes one batch of requests: dest[i] is the destination
// terminal requested by input i, or NoRequest. It returns one Outcome per
// input plus aggregate statistics.
//
// Digit retirement follows Section 2: stage i consumes d_(l-i) of the
// destination tag, the final crossbar stage consumes x. The c-way wire
// freedom inside each bucket (Theorem 2) is resolved by arbitration
// order, which is how the MasPar hyperbar behaves.
//
// RouteCycle allocates its result slices; steady-state measurement loops
// should call RouteCycleInto instead.
func (n *Network) RouteCycle(dest []int) ([]Outcome, CycleStats, error) {
	outcomes := make([]Outcome, n.Config().Inputs())
	cs, err := n.RouteCycleInto(dest, outcomes)
	if err != nil {
		return nil, CycleStats{}, err
	}
	cs.Blocked = append([]int(nil), cs.Blocked...)
	return outcomes, cs, nil
}

// RouteCycleInto is RouteCycle with caller-owned memory: outcomes (one
// slot per input) receives every input's fate, and all engine scratch —
// including the stats' Blocked slice — is reused across calls, so a
// steady-state loop performs no allocations.
//
// The returned CycleStats.Blocked aliases an internal buffer that the
// next RouteCycleInto call on this network overwrites; callers that keep
// it across cycles must copy it (RouteCycle does exactly that).
func (n *Network) RouteCycleInto(dest []int, outcomes []Outcome) (CycleStats, error) {
	if inputs := n.Config().Inputs(); len(outcomes) != inputs {
		return CycleStats{}, fmt.Errorf("core: %v got %d outcome slots, want %d inputs", n.Config(), len(outcomes), inputs)
	}
	if _, err := n.q.Cycle(dest); err != nil {
		return CycleStats{}, err
	}
	clear(n.blocked)
	stats := CycleStats{Blocked: n.blocked}
	for i, d := range dest {
		o := Outcome{Output: NoRequest}
		if d != NoRequest {
			stats.Offered++
			s := 1 // refused at a dead input: blocked at stage 1
			if n.liveIn == nil || n.liveIn[i] {
				s = n.q.Verdict(i)
			}
			if s == 0 {
				o.Output = d
				stats.Delivered++
			} else {
				o.BlockedStage = s
				n.blocked[s-1]++
			}
		}
		outcomes[i] = o
	}
	return stats, nil
}
