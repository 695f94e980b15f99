// Package switchfab models the switching fabric elements of an Expanded
// Delta Network: the hyperbar switch H(a -> b x c) of Definition 1 (the
// generalized MasPar MP-1 router switch) and the classical crossbar, which
// is its c = 1 degenerate case.
//
// A hyperbar connects a inputs to b output groups ("buckets") of c wires
// each. Every requesting input supplies a base-b control digit naming the
// bucket it wants. A bucket accepts at most c requests per cycle; the rest
// are rejected. Which of the c wires a winner lands on is immaterial to
// routing (that freedom is exactly the multipath of Theorem 2), so the
// switch assigns wires in arbitration order. An Arbiter has one method,
// OrderInto, which writes a cycle's order into the caller's buffer, so
// the packet engine arbitrates without allocating under every policy.
package switchfab

import "fmt"

// Idle marks an input with no request this cycle.
const Idle = -1

// Hyperbar is an H(A -> B x C) switch. The zero value is not usable; use
// NewHyperbar or fill all three fields and call Validate.
type Hyperbar struct {
	A int // number of inputs
	B int // number of output buckets
	C int // bucket capacity (wires per bucket)
}

// NewHyperbar returns an H(a -> b x c) switch after validating parameters.
func NewHyperbar(a, b, c int) (Hyperbar, error) {
	h := Hyperbar{A: a, B: b, C: c}
	if err := h.Validate(); err != nil {
		return Hyperbar{}, err
	}
	return h, nil
}

// Validate checks the switch parameters. The paper assumes a, b, c are
// powers of two; the switch itself only needs them positive, so the
// power-of-two restriction lives in the topology package.
func (h Hyperbar) Validate() error {
	switch {
	case h.A <= 0:
		return fmt.Errorf("switchfab: hyperbar inputs a=%d must be positive", h.A)
	case h.B <= 0:
		return fmt.Errorf("switchfab: hyperbar buckets b=%d must be positive", h.B)
	case h.C <= 0:
		return fmt.Errorf("switchfab: hyperbar capacity c=%d must be positive", h.C)
	}
	return nil
}

// Outputs returns the number of output wires, b x c.
func (h Hyperbar) Outputs() int { return h.B * h.C }

// Crosspoints returns the crosspoint-switch count a*b*c used as the area
// cost of the switch in Section 3.1.
func (h Hyperbar) Crosspoints() int { return h.A * h.B * h.C }

// IsCrossbar reports whether the switch degenerates to an a x b crossbar
// (capacity one).
func (h Hyperbar) IsCrossbar() bool { return h.C == 1 }

// String renders the switch in the paper's H(a -> b x c) notation.
func (h Hyperbar) String() string {
	return fmt.Sprintf("H(%d -> %dx%d)", h.A, h.B, h.C)
}

// Route arbitrates one cycle of the switch. digits[i] is the base-b
// control digit presented by input i, or Idle. The returned slice out has
// out[i] = output wire index in [0, b*c) granted to input i, or Idle if
// input i was idle or rejected. rejected counts inputs that requested but
// lost arbitration.
//
// The arbiter decides the order in which competing inputs are considered;
// PriorityArbiter (or a nil arbiter) reproduces the paper's "prioritized
// according to their input label" rule from the Figure 2 example. An
// order that is not a permutation of [0, A), an entry left unwritten
// included, is an error.
func (h Hyperbar) Route(digits []int, arb Arbiter) (out []int, rejected int, err error) {
	if err := h.Validate(); err != nil {
		return nil, 0, err
	}
	if len(digits) != h.A {
		return nil, 0, fmt.Errorf("switchfab: %v got %d digits, want %d", h, len(digits), h.A)
	}
	for i, d := range digits {
		if d != Idle && (d < 0 || d >= h.B) {
			return nil, 0, fmt.Errorf("switchfab: %v input %d digit %d out of range [0,%d)", h, i, d, h.B)
		}
	}
	if arb == nil {
		arb = PriorityArbiter{}
	}
	order := make([]int, h.A)
	for i := range order {
		order[i] = -1
	}
	arb.OrderInto(order)
	seen := make([]bool, h.A)
	for _, i := range order {
		if i < 0 || i >= h.A || seen[i] {
			return nil, 0, fmt.Errorf("switchfab: %v arbiter order %v is not a permutation of [0,%d)", h, order, h.A)
		}
		seen[i] = true
	}
	out = make([]int, h.A)
	for i := range out {
		out[i] = Idle
	}
	used := make([]int, h.B)
	for _, i := range order {
		d := digits[i]
		if d == Idle {
			continue
		}
		if used[d] < h.C {
			out[i] = d*h.C + used[d]
			used[d]++
		} else {
			rejected++
		}
	}
	return out, rejected, nil
}

// Crossbar is an N x M crosspoint switch: each of the M outputs can be
// granted to at most one input per cycle. It is behaviorally identical to
// Hyperbar{N, M, 1} and exists as a named type because the paper treats
// the crossbar both as a network in its own right and as the final stage
// of every EDN.
type Crossbar struct {
	N int // inputs
	M int // outputs
}

// NewCrossbar returns an n x m crossbar after validating parameters.
func NewCrossbar(n, m int) (Crossbar, error) {
	x := Crossbar{N: n, M: m}
	if err := x.Validate(); err != nil {
		return Crossbar{}, err
	}
	return x, nil
}

// Validate checks the switch parameters.
func (x Crossbar) Validate() error {
	if x.N <= 0 || x.M <= 0 {
		return fmt.Errorf("switchfab: crossbar %dx%d must have positive dimensions", x.N, x.M)
	}
	return nil
}

// Crosspoints returns the crosspoint count n*m.
func (x Crossbar) Crosspoints() int { return x.N * x.M }

// Hyperbar returns the equivalent H(n -> m x 1) switch.
func (x Crossbar) Hyperbar() Hyperbar { return Hyperbar{A: x.N, B: x.M, C: 1} }

// String renders the switch dimensions.
func (x Crossbar) String() string { return fmt.Sprintf("%dx%d crossbar", x.N, x.M) }

// Route arbitrates one cycle: wants[i] is the output requested by input i
// (or Idle); out[i] is the granted output or Idle; rejected counts losers.
func (x Crossbar) Route(wants []int, arb Arbiter) (out []int, rejected int, err error) {
	if err := x.Validate(); err != nil {
		return nil, 0, err
	}
	if len(wants) != x.N {
		return nil, 0, fmt.Errorf("switchfab: %v got %d requests, want %d", x, len(wants), x.N)
	}
	out, rejected, err = x.Hyperbar().Route(wants, arb)
	if err != nil {
		return nil, 0, fmt.Errorf("switchfab: %v: %w", x, err)
	}
	return out, rejected, nil
}
