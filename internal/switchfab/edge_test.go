package switchfab

import "testing"

// edge_test.go covers the error and default paths of the switch models.

func TestNewCrossbarValidation(t *testing.T) {
	if _, err := NewCrossbar(0, 4); err == nil {
		t.Error("expected error for zero inputs")
	}
	if _, err := NewCrossbar(4, -1); err == nil {
		t.Error("expected error for negative outputs")
	}
	if x, err := NewCrossbar(4, 4); err != nil || x.N != 4 {
		t.Errorf("NewCrossbar(4,4) = %v, %v", x, err)
	}
}

func TestCrossbarRouteLengthError(t *testing.T) {
	x := Crossbar{N: 4, M: 4}
	if _, _, err := x.Route([]int{0}, nil); err == nil {
		t.Error("expected length error")
	}
	bad := Crossbar{N: 0, M: 4}
	if _, _, err := bad.Route(nil, nil); err == nil {
		t.Error("expected validation error")
	}
}

func TestRouteDefaultsToPriorityArbiter(t *testing.T) {
	h := Hyperbar{A: 4, B: 2, C: 1}
	// Two contenders for bucket 0: with nil arbiter, input 0 wins.
	out, rejected, err := h.Route([]int{0, 0, Idle, Idle}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == Idle || out[1] != Idle || rejected != 1 {
		t.Fatalf("default arbitration wrong: %v rejected=%d", out, rejected)
	}
}

// badArbiter fills its order by fill; a nil fill writes nothing.
type badArbiter struct{ fill func(order []int) }

func (b badArbiter) OrderInto(order []int) {
	if b.fill != nil {
		b.fill(order)
	}
}

// TestRouteRejectsBadArbiter: an order that is not a permutation of the
// switch's inputs is an error, whether it leaves entries unwritten,
// repeats an input (which would skip the others) or names an input past
// the switch (which would index out of range).
func TestRouteRejectsBadArbiter(t *testing.T) {
	h := Hyperbar{A: 4, B: 2, C: 1}
	bad := map[string]func(order []int){
		"unwritten": nil,
		"short": func(order []int) {
			for i := range order[:len(order)-1] {
				order[i] = i + 1
			}
		},
		"repeat": func(order []int) { clear(order) },
		"out-of-range": func(order []int) {
			PriorityArbiter{}.OrderInto(order)
			order[0] = len(order)
		},
	}
	for name, fill := range bad {
		if out, _, err := h.Route([]int{0, 1, 0, 1}, badArbiter{fill}); err == nil {
			t.Errorf("%s arbitration order accepted: out=%v", name, out)
		}
	}
}

func TestRouteInvalidSwitch(t *testing.T) {
	h := Hyperbar{A: 0, B: 2, C: 1}
	if _, _, err := h.Route(nil, nil); err == nil {
		t.Error("expected validation error for zero-input switch")
	}
}

func TestRoundRobinZeroInputs(t *testing.T) {
	arb := &RoundRobinArbiter{}
	arb.OrderInto(nil)
	if got := orderOf(arb, 3); got[0] != 0 {
		t.Errorf("an empty order moved the rotation: next order %v", got)
	}
}

func TestStringForms(t *testing.T) {
	h := Hyperbar{A: 8, B: 4, C: 2}
	if h.String() != "H(8 -> 4x2)" {
		t.Errorf("hyperbar String = %q", h.String())
	}
	x := Crossbar{N: 4, M: 4}
	if x.String() != "4x4 crossbar" {
		t.Errorf("crossbar String = %q", x.String())
	}
	if !x.Hyperbar().IsCrossbar() {
		t.Error("crossbar's hyperbar form should report IsCrossbar")
	}
	if h.IsCrossbar() {
		t.Error("capacity-2 hyperbar is not a crossbar")
	}
	if h.Outputs() != 8 {
		t.Errorf("Outputs = %d", h.Outputs())
	}
}
