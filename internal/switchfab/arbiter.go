package switchfab

// Arbiter chooses the order in which a switch considers its inputs when a
// bucket is oversubscribed. Inputs earlier in the order win ties.
//
// The paper's running example (Figure 2) prioritizes inputs by label
// (0, 1, 2, ..., a-1); that is PriorityArbiter. RoundRobinArbiter and
// RandomArbiter are fairness ablations: the closed-form performance model
// of Section 3.2 is arbitration-agnostic (it only counts winners), so all
// three must produce statistically identical acceptance rates — a property
// the simulator test suite checks.
type Arbiter interface {
	// OrderInto fills order, whose length is the switch's input count,
	// with one cycle's arbitration order: a permutation of
	// [0, len(order)). Writing into the caller's buffer keeps the packet
	// engine's arbitration allocation-free.
	OrderInto(order []int)
}

// ArbiterFactory builds one arbiter per physical switch. Stateful
// arbiters (round robin, random) need per-switch instances; stateless
// ones may return a shared value.
type ArbiterFactory func() Arbiter

// PriorityArbiters is the default factory: the paper's input-label
// priority rule.
func PriorityArbiters() Arbiter { return PriorityArbiter{} }

// PriorityArbiter grants competing inputs in increasing input-label order,
// matching the paper's Figure 2 worked example.
type PriorityArbiter struct{}

// OrderInto fills order with 0, 1, ..., len(order)-1.
func (PriorityArbiter) OrderInto(order []int) {
	for i := range order {
		order[i] = i
	}
}

// RoundRobinArbiter rotates the starting input every cycle so no input is
// persistently favored. It is stateful and not safe for concurrent use by
// multiple goroutines.
type RoundRobinArbiter struct {
	next int
}

// OrderInto fills order with next, next+1, ..., wrapping mod
// len(order), then advances next.
func (r *RoundRobinArbiter) OrderInto(order []int) {
	n := len(order)
	if n == 0 {
		return
	}
	start := r.next % n
	for i := range order {
		order[i] = (start + i) % n
	}
	r.next = (start + 1) % n
}

// RandomArbiter draws a fresh uniform arbitration order each cycle from a
// caller-supplied permutation source, keeping the package free of any RNG
// dependency. It is not safe for concurrent use.
type RandomArbiter struct {
	// Perm fills its argument with a uniform random permutation of
	// [0, len(order)), as xrand's PermInto does. Nil means the priority
	// order.
	Perm func(order []int)
}

// OrderInto fills order by Perm.
func (r RandomArbiter) OrderInto(order []int) {
	if r.Perm == nil {
		PriorityArbiter{}.OrderInto(order)
		return
	}
	r.Perm(order)
}
