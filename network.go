package edn

import (
	"fmt"

	"edn/internal/queuesim"
)

// Network is an instantiated EDN that routes request batches with the
// exact hyperbar semantics (one call = one circuit-switched cycle): a
// view of the packet engine's depth-0 Drop corner, QueueOptions{Depth:
// 0, Policy: QueueDrop}, read per request through its verdicts. It is
// not safe for concurrent use; build one per goroutine.
type Network struct {
	q       *queuesim.Network
	blocked []int // CycleStats.Blocked backing store
}

// NoRequest marks an idle input in request vectors and outcomes.
const NoRequest = queuesim.NoRequest

// Outcome is the per-input result of a routed cycle.
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

// CycleStats aggregates one routed cycle.
type CycleStats struct {
	Offered   int   // inputs carrying a request
	Delivered int   // requests that reached their destination
	Blocked   []int // Blocked[s-1] = requests dropped at stage s
}

// BlockedTotal returns the total number of dropped requests.
func (cs CycleStats) BlockedTotal() (t int) {
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

// NewNetwork builds a cycle-level network (nil factory = priority rule).
func NewNetwork(cfg Config, factory ArbiterFactory) (*Network, error) {
	return NewNetworkWithFaults(cfg, factory, nil)
}

// NewNetworkWithFaults builds a cycle-level network that grants only
// live wires: requests route around dead components while any sibling
// bucket wire survives, are blocked where none does, and a request on
// a dead input is blocked at stage 1. A nil or empty mask is exactly
// NewNetwork. The queueing engine takes the same masks via
// QueueOptions.Faults.
func NewNetworkWithFaults(cfg Config, factory ArbiterFactory, m *FaultMasks) (*Network, error) {
	q, err := queuesim.New(cfg, queuesim.Options{Policy: queuesim.Drop, Factory: factory, Faults: m})
	if err != nil {
		return nil, err
	}
	return &Network{q: q, blocked: make([]int, cfg.Stages())}, nil
}

// UpdateFaults swaps the network's availability masks in place without
// rebuilding tables or arbiter state, allocating nothing; a nil or
// empty mask restores the unmasked paths bit-for-bit. On error (masks
// of another configuration) the previous masks remain in effect.
func (n *Network) UpdateFaults(m *FaultMasks) error { return n.q.UpdateFaults(m) }

// SetProbe attaches (or with nil, detaches) a flight-recorder probe to
// the engine, which traces sampled requests and records stage heat in
// its own vocabulary. A nil probe restores the uninstrumented cycle
// bit-for-bit.
func (n *Network) SetProbe(p *Probe) { n.q.SetProbe(p) }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.q.Config() }

// RouteCycle routes one batch of requests: dest[i] is the destination
// terminal requested by input i, or NoRequest. Stage i consumes digit
// d_(l-i) of the destination tag and the crossbar stage consumes x
// (Section 2); the c-way wire freedom inside a bucket (Theorem 2) is
// resolved by arbitration order, as in the MasPar hyperbar. It
// allocates its results; steady-state loops call RouteCycleInto.
func (n *Network) RouteCycle(dest []int) ([]Outcome, CycleStats, error) {
	outcomes := make([]Outcome, n.q.Config().Inputs())
	cs, err := n.RouteCycleInto(dest, outcomes)
	if err != nil {
		return nil, CycleStats{}, err
	}
	cs.Blocked = append([]int(nil), cs.Blocked...)
	return outcomes, cs, nil
}

// RouteCycleInto is RouteCycle into caller-owned outcomes (one slot per
// input); a steady-state loop allocates nothing. The returned Blocked
// slice is overwritten by the next call.
func (n *Network) RouteCycleInto(dest []int, outcomes []Outcome) (CycleStats, error) {
	if inputs := n.q.Config().Inputs(); len(outcomes) != inputs {
		return CycleStats{}, fmt.Errorf("edn: %v got %d outcome slots, want %d inputs", n.q.Config(), len(outcomes), inputs)
	}
	cs, err := n.q.Cycle(dest)
	if err != nil {
		return CycleStats{}, err
	}
	clear(n.blocked)
	for i, d := range dest {
		o := Outcome{Output: d}
		if s := n.q.Verdict(i); d != NoRequest && s != 0 {
			o = Outcome{Output: NoRequest, BlockedStage: s}
			n.blocked[s-1]++
		}
		outcomes[i] = o
	}
	return CycleStats{Offered: cs.Injected, Delivered: cs.Delivered, Blocked: n.blocked}, nil
}
