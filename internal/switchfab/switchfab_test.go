package switchfab

import (
	"testing"
	"testing/quick"
)

func TestNewHyperbarValidation(t *testing.T) {
	cases := []struct {
		a, b, c int
		ok      bool
	}{
		{8, 4, 2, true},
		{1, 1, 1, true},
		{0, 4, 2, false},
		{8, 0, 2, false},
		{8, 4, 0, false},
		{-8, 4, 2, false},
	}
	for _, cse := range cases {
		_, err := NewHyperbar(cse.a, cse.b, cse.c)
		if (err == nil) != cse.ok {
			t.Errorf("NewHyperbar(%d,%d,%d) err=%v want ok=%v", cse.a, cse.b, cse.c, err, cse.ok)
		}
	}
}

// TestFigure2WorkedExample replays the paper's Figure 2: an H(8 -> 4x2)
// hyperbar with control digits 3,2,3,1,2,2,0,3 on inputs 0..7 and
// input-label priority. The paper states inputs 5 and 7 are discarded
// because their destination buckets (2 and 3) were already full.
func TestFigure2WorkedExample(t *testing.T) {
	h, err := NewHyperbar(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	digits := []int{3, 2, 3, 1, 2, 2, 0, 3}
	out, rejected, err := h.Route(digits, PriorityArbiter{})
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
	if out[5] != Idle || out[7] != Idle {
		t.Fatalf("inputs 5 and 7 should be discarded, got out=%v", out)
	}
	// Winners land in their requested bucket: wire/bucket agreement.
	for i, o := range out {
		if o == Idle {
			continue
		}
		if o/h.C != digits[i] {
			t.Fatalf("input %d granted wire %d outside bucket %d", i, o, digits[i])
		}
	}
	// Bucket 3 holds inputs 0 and 2 (the first two by priority), bucket 2
	// holds inputs 1 and 4, bucket 1 holds input 3, bucket 0 holds input 6.
	want := []int{3 * 2, 2 * 2, 3*2 + 1, 1 * 2, 2*2 + 1, Idle, 0, Idle}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out[%d] = %d, want %d (full grant vector %v)", i, out[i], w, out)
		}
	}
}

func TestRouteAllIdle(t *testing.T) {
	h := Hyperbar{A: 4, B: 2, C: 2}
	out, rejected, err := h.Route([]int{Idle, Idle, Idle, Idle}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 {
		t.Fatalf("rejected = %d, want 0", rejected)
	}
	for i, o := range out {
		if o != Idle {
			t.Fatalf("out[%d] = %d, want Idle", i, o)
		}
	}
}

func TestRouteRejectsBadDigit(t *testing.T) {
	h := Hyperbar{A: 2, B: 2, C: 1}
	if _, _, err := h.Route([]int{0, 2}, nil); err == nil {
		t.Fatal("expected error for digit out of range")
	}
	if _, _, err := h.Route([]int{0, -2}, nil); err == nil {
		t.Fatal("expected error for negative non-idle digit")
	}
	if _, _, err := h.Route([]int{0}, nil); err == nil {
		t.Fatal("expected error for short digit slice")
	}
}

func TestCrossbarEquivalence(t *testing.T) {
	// A crossbar is H(n -> m x 1): same grants, same rejections.
	x := Crossbar{N: 6, M: 4}
	h := x.Hyperbar()
	wants := []int{2, 2, 0, 3, 0, 2}
	xo, xr, err := x.Route(wants, PriorityArbiter{})
	if err != nil {
		t.Fatal(err)
	}
	ho, hr, err := h.Route(wants, PriorityArbiter{})
	if err != nil {
		t.Fatal(err)
	}
	if xr != hr {
		t.Fatalf("rejections differ: crossbar %d hyperbar %d", xr, hr)
	}
	for i := range xo {
		if xo[i] != ho[i] {
			t.Fatalf("grant %d differs: crossbar %d hyperbar %d", i, xo[i], ho[i])
		}
	}
	if xr != 3 {
		t.Fatalf("rejected = %d, want 3 (one winner per contested output)", xr)
	}
}

func TestCrosspointCosts(t *testing.T) {
	h := Hyperbar{A: 16, B: 4, C: 4}
	if got := h.Crosspoints(); got != 256 {
		t.Fatalf("H(16->4x4) crosspoints = %d, want 256", got)
	}
	x := Crossbar{N: 8, M: 8}
	if got := x.Crosspoints(); got != 64 {
		t.Fatalf("8x8 crossbar crosspoints = %d, want 64", got)
	}
}

func TestRoundRobinArbiterRotates(t *testing.T) {
	arb := &RoundRobinArbiter{}
	first := orderOf(arb, 4)
	second := orderOf(arb, 4)
	if first[0] != 0 || second[0] != 1 {
		t.Fatalf("round robin starts = %d then %d, want 0 then 1", first[0], second[0])
	}
	for cycle := 0; cycle < 10; cycle++ {
		if o := orderOf(arb, 4); !isPerm(o, 4) {
			t.Fatalf("cycle %d: order %v not a permutation", cycle, o)
		}
	}
}

func TestRandomArbiterFallsBackToPriority(t *testing.T) {
	o := orderOf(RandomArbiter{}, 3)
	for i, v := range o {
		if v != i {
			t.Fatalf("nil-Perm RandomArbiter order = %v, want identity", o)
		}
	}
}

// orderOf is one cycle's arbitration order of a for n inputs.
func orderOf(a Arbiter, n int) []int {
	order := make([]int, n)
	a.OrderInto(order)
	return order
}

func isPerm(o []int, n int) bool {
	if len(o) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range o {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Property checks on arbitrary request vectors: conservation (every
// request is granted or rejected), bucket capacity, wire exclusivity, and
// bucket agreement — the switch invariants the routing proofs rely on.
func TestQuickHyperbarInvariants(t *testing.T) {
	f := func(rawA, rawB, rawC uint8, seed int64) bool {
		a := int(rawA%16) + 1
		b := int(rawB%8) + 1
		c := int(rawC%4) + 1
		h := Hyperbar{A: a, B: b, C: c}
		digits := make([]int, a)
		s := seed
		for i := range digits {
			// Cheap deterministic LCG so quick controls the randomness.
			s = s*6364136223846793005 + 1442695040888963407
			v := int((s >> 33) % int64(b+1))
			if v < 0 {
				v = -v % (b + 1)
			}
			if v == b {
				digits[i] = Idle
			} else {
				digits[i] = v
			}
		}
		out, rejected, err := h.Route(digits, PriorityArbiter{})
		if err != nil {
			return false
		}
		granted := 0
		requested := 0
		wires := map[int]bool{}
		perBucket := make([]int, b)
		for i, o := range out {
			if digits[i] == Idle {
				if o != Idle {
					return false // grant without request
				}
				continue
			}
			requested++
			if o == Idle {
				continue
			}
			granted++
			if o < 0 || o >= b*c {
				return false
			}
			if o/c != digits[i] {
				return false // wrong bucket
			}
			if wires[o] {
				return false // wire double-granted
			}
			wires[o] = true
			perBucket[o/c]++
		}
		for _, n := range perBucket {
			if n > c {
				return false
			}
		}
		return granted+rejected == requested
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the switch is work-conserving — an input is rejected only if
// its bucket is completely full with other winners.
func TestQuickWorkConserving(t *testing.T) {
	f := func(rawB, rawC uint8, seed int64) bool {
		b := int(rawB%6) + 1
		c := int(rawC%4) + 1
		a := 2 * b * c
		h := Hyperbar{A: a, B: b, C: c}
		digits := make([]int, a)
		s := seed
		for i := range digits {
			s = s*2862933555777941757 + 3037000493
			v := int((s >> 34) % int64(b))
			if v < 0 {
				v += b
			}
			digits[i] = v
		}
		out, _, err := h.Route(digits, PriorityArbiter{})
		if err != nil {
			return false
		}
		perBucket := make([]int, b)
		for _, o := range out {
			if o != Idle {
				perBucket[o/c]++
			}
		}
		for i, o := range out {
			if o == Idle && perBucket[digits[i]] != c {
				return false // rejected despite free capacity
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
