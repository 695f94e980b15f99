package routing

import (
	"fmt"
	"testing"
	"testing/quick"

	"edn/internal/topology"
)

func mustCfg(t *testing.T, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestTagRoundTrip(t *testing.T) {
	cfgs := []topology.Config{
		mustCfg(t, 16, 4, 4, 2),
		mustCfg(t, 64, 16, 4, 2),
		mustCfg(t, 8, 2, 4, 3),
		mustCfg(t, 4, 4, 1, 3),
	}
	for _, cfg := range cfgs {
		for dst := 0; dst < cfg.Outputs(); dst++ {
			tag, err := Encode(cfg, dst)
			if err != nil {
				t.Fatalf("%v dst=%d: %v", cfg, dst, err)
			}
			if got := tag.Dest(); got != dst {
				t.Fatalf("%v: Dest() = %d, want %d", cfg, got, dst)
			}
		}
	}
}

func TestEncodeRange(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	if _, err := Encode(cfg, -1); err == nil {
		t.Error("expected error for negative destination")
	}
	if _, err := Encode(cfg, cfg.Outputs()); err == nil {
		t.Error("expected error for destination == Outputs")
	}
}

func TestDigitForStageStandardOrder(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	// dst = (d1 d0)_4 * 4 + x with d1=3, d0=1, x=2 -> dst = (3*4+1)*4+2 = 54.
	tag, err := Encode(cfg, 54)
	if err != nil {
		t.Fatal(err)
	}
	if got := tag.DigitForStage(1); got != 3 {
		t.Errorf("stage 1 digit = %d, want d1=3", got)
	}
	if got := tag.DigitForStage(2); got != 1 {
		t.Errorf("stage 2 digit = %d, want d0=1", got)
	}
	if got := tag.DigitForStage(3); got != 2 {
		t.Errorf("stage 3 digit = %d, want x=2", got)
	}
}

func TestSourceDigits(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2) // q = a/c = 16, c = 4
	// src = (s1 s0)_16 * 4 + x' with s1=9, s0=13, x'=3 -> (9*16+13)*4+3 = 631.
	s, xp, err := SourceDigits(cfg, 631)
	if err != nil {
		t.Fatal(err)
	}
	if xp != 3 || s[0] != 13 || s[1] != 9 {
		t.Fatalf("SourceDigits = s=%v x'=%d, want s=[13 9] x'=3", s, xp)
	}
	if _, _, err := SourceDigits(cfg, cfg.Inputs()); err == nil {
		t.Error("expected range error")
	}
}

// TestLemma1Algebra verifies the closed-form line positions derived in the
// Lemma 1 proof: the output of hyperbar stage i (before the interstage
// permutation) is the mixed-radix string (s_(l-i)...s_1 d_(l-1)...d_(l-i))
// times c plus the free wire choice K_i — so the crossbar stage receives
// line (d_(l-1)...d_0)*c + K_l, the s-part having been fully consumed.
func TestLemma1Algebra(t *testing.T) {
	cfgs := []topology.Config{
		mustCfg(t, 16, 4, 4, 2),
		mustCfg(t, 64, 16, 4, 2),
		mustCfg(t, 8, 2, 4, 3),
		mustCfg(t, 8, 4, 2, 3),
	}
	for _, cfg := range cfgs {
		q := cfg.A / cfg.C
		step := max(1, cfg.Inputs()/16)
		for src := 0; src < cfg.Inputs(); src += step {
			for dst := 0; dst < cfg.Outputs(); dst += max(1, cfg.Outputs()/16) {
				choices := make([]int, cfg.L)
				for i := range choices {
					choices[i] = (src + 3*i + dst) % cfg.C
				}
				tr, err := TraceRoute(cfg, src, dst, choices)
				if err != nil {
					t.Fatalf("%v %d->%d: %v", cfg, src, dst, err)
				}
				s, _, err := SourceDigits(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				tag, err := Encode(cfg, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= cfg.L; i++ {
					// Mixed-radix value of s_(l-i)..s_1 (base q) followed by
					// d_(l-1)..d_(l-i) (base b).
					v := 0
					for j := cfg.L - i; j >= 1; j-- {
						v = v*q + s[j]
					}
					for j := cfg.L - 1; j >= cfg.L-i; j-- {
						v = v*cfg.B + tag.Digit(j)
					}
					want := v*cfg.C + choices[i-1]
					if got := tr.Hops[i-1].OutLine; got != want {
						t.Fatalf("%v %d->%d stage %d: OutLine=%d, want %d", cfg, src, dst, i, got, want)
					}
				}
				// The crossbar stage receives line (d_(l-1)...d_0)*c + K_l and
				// the message lands exactly on dst.
				last := tr.Hops[cfg.L]
				if want := (dst/cfg.C)*cfg.C + choices[cfg.L-1]; last.InLine != want {
					t.Fatalf("%v %d->%d: crossbar in-line %d, want %d", cfg, src, dst, last.InLine, want)
				}
				if last.OutLine != dst {
					t.Fatalf("%v %d->%d: delivered to %d", cfg, src, dst, last.OutLine)
				}
			}
		}
	}
}

// TestCorollary1RenamingInvariance: routing depends only on the tag, not
// on which input carries it — any source reaches any destination.
func TestCorollary1RenamingInvariance(t *testing.T) {
	cfg := mustCfg(t, 8, 2, 4, 2)
	dst := 5
	for src := 0; src < cfg.Inputs(); src++ {
		tr, err := TraceRoute(cfg, src, dst, nil)
		if err != nil {
			t.Fatalf("src=%d: %v", src, err)
		}
		if got := tr.Hops[len(tr.Hops)-1].OutLine; got != dst {
			t.Fatalf("src=%d delivered to %d, want %d", src, got, dst)
		}
	}
}

func TestTraceRouteArgumentErrors(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	if _, err := TraceRoute(cfg, -1, 0, nil); err == nil {
		t.Error("expected source range error")
	}
	if _, err := TraceRoute(cfg, 0, -1, nil); err == nil {
		t.Error("expected destination range error")
	}
	if _, err := TraceRoute(cfg, 0, cfg.Outputs(), nil); err == nil {
		t.Error("expected destination range error at Outputs()")
	}
	if _, err := TraceRoute(cfg, 0, 0, []int{0}); err == nil {
		t.Error("expected choice length error")
	}
	if _, err := TraceRoute(cfg, 0, 0, []int{0, 99}); err == nil {
		t.Error("expected choice range error")
	}
}

// lines is a trace's wire labels: the source, the wire after each
// hyperbar stage's interstage wiring, and the crossbar's output.
func lines(tr Trace) []int {
	out := []int{tr.Source}
	for _, h := range tr.Hops {
		out = append(out, h.NextLine)
	}
	return out
}

// TestTheorem1Connected walks every (src, dst) pair of several small
// networks with an arbitrary choice vector: Lemma 1 guarantees arrival.
func TestTheorem1Connected(t *testing.T) {
	cfgs := []topology.Config{
		{A: 4, B: 2, C: 2, L: 2},
		{A: 8, B: 2, C: 4, L: 2},
		{A: 8, B: 4, C: 2, L: 2},
		{A: 4, B: 4, C: 1, L: 3},
		{A: 4, B: 8, C: 2, L: 2},
		{A: 8, B: 2, C: 2, L: 2}, // contracting network (inputs > outputs)
	}
	for _, cfg := range cfgs {
		choices := make([]int, cfg.L)
		for src := 0; src < cfg.Inputs(); src++ {
			for dst := 0; dst < cfg.Outputs(); dst++ {
				for i := range choices {
					choices[i] = (src + dst + i) % cfg.C
				}
				if _, err := TraceRoute(cfg, src, dst, choices); err != nil {
					t.Fatalf("%v: walk(%d -> %d) failed: %v", cfg, src, dst, err)
				}
			}
		}
	}
}

// TestTheorem2PathCount enumerates all paths on small networks and checks
// there are exactly c^l distinct ones, all valid.
func TestTheorem2PathCount(t *testing.T) {
	cfgs := []topology.Config{
		{A: 4, B: 2, C: 2, L: 2},
		{A: 8, B: 2, C: 4, L: 2},
		{A: 8, B: 4, C: 2, L: 3},
		{A: 4, B: 4, C: 1, L: 2}, // delta: unique path
	}
	for _, cfg := range cfgs {
		for src := 0; src < cfg.Inputs(); src += max(1, cfg.Inputs()/4) {
			for dst := 0; dst < cfg.Outputs(); dst += max(1, cfg.Outputs()/4) {
				seen := map[string]bool{}
				choices := make([]int, cfg.L)
				for n := 0; n < cfg.PathCount(); n++ {
					v := n // n as a base-c choice vector
					for i := range choices {
						choices[i] = v % cfg.C
						v /= cfg.C
					}
					tr, err := TraceRoute(cfg, src, dst, choices)
					if err != nil {
						t.Fatalf("%v src=%d dst=%d: %v", cfg, src, dst, err)
					}
					p := lines(tr)
					if p[0] != src || p[len(p)-1] != dst {
						t.Fatalf("%v: path %v does not join %d to %d", cfg, p, src, dst)
					}
					key := fmt.Sprint(p)
					if seen[key] {
						t.Fatalf("%v src=%d dst=%d: duplicate path %v", cfg, src, dst, p)
					}
					seen[key] = true
				}
				if len(seen) != cfg.PathCount() {
					t.Fatalf("%v src=%d dst=%d: %d paths, want %d", cfg, src, dst, len(seen), cfg.PathCount())
				}
			}
		}
	}
}

func TestTraceStringMentionsStages(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	tr, err := TraceRoute(cfg, 17, 42, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.String()
	if len(s) == 0 {
		t.Fatal("empty trace rendering")
	}
	for _, want := range []string{"stage 1", "stage 2", "stage 3", "crossbar"} {
		if !contains(s, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, s)
		}
	}
}

func TestRetirementOrderValidation(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	if _, err := NewRetirementOrder(cfg, []int{0}); err == nil {
		t.Error("expected length error")
	}
	if _, err := NewRetirementOrder(cfg, []int{0, 0}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := NewRetirementOrder(cfg, []int{0, 2}); err == nil {
		t.Error("expected range error")
	}
	if _, err := NewRetirementOrder(cfg, []int{1, 0}); err != nil {
		t.Errorf("standard order rejected: %v", err)
	}
}

func TestStandardOrderIsIdentityF(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2)
	ro := StandardOrder(cfg)
	if !ro.IsStandard() {
		t.Fatal("StandardOrder not reported standard")
	}
	for dst := 0; dst < cfg.Outputs(); dst += 7 {
		got, err := ro.F(dst)
		if err != nil {
			t.Fatal(err)
		}
		if got != dst {
			t.Fatalf("standard F(%d) = %d", dst, got)
		}
	}
}

// TestCorollary2FInverse: retiring digits in a different order delivers D
// to F(D); composing with FInverse restores every destination, and the
// Figure 6 output permutation table realizes exactly that compensation.
func TestCorollary2FInverse(t *testing.T) {
	cfgs := []topology.Config{
		mustCfg(t, 64, 16, 4, 2),
		mustCfg(t, 8, 4, 2, 3),
		mustCfg(t, 8, 2, 4, 3),
	}
	for _, cfg := range cfgs {
		orders := []RetirementOrder{ReversedOrder(cfg), StandardOrder(cfg)}
		if cfg.L >= 3 {
			ro, err := NewRetirementOrder(cfg, []int{1, 2, 0})
			if err != nil {
				t.Fatal(err)
			}
			orders = append(orders, ro)
		}
		for _, ro := range orders {
			table, err := ro.OutputPermutation()
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, len(table))
			for dst := 0; dst < cfg.Outputs(); dst++ {
				f, err := ro.F(dst)
				if err != nil {
					t.Fatal(err)
				}
				inv, err := ro.FInverse(f)
				if err != nil {
					t.Fatal(err)
				}
				if inv != dst {
					t.Fatalf("%v %v: FInverse(F(%d)) = %d", cfg, ro, dst, inv)
				}
				if table[f] != dst {
					t.Fatalf("%v %v: output table[%d] = %d, want %d", cfg, ro, f, table[f], dst)
				}
				if seen[f] {
					t.Fatalf("%v %v: F not injective at %d", cfg, ro, f)
				}
				seen[f] = true
			}
		}
	}
}

// TestCorollary2TraceDelivery: tracing with a non-standard order delivers
// the message to F(dst), and the compensating table maps it back.
func TestCorollary2TraceDelivery(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2)
	ro := ReversedOrder(cfg)
	table, err := ro.OutputPermutation()
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < cfg.Outputs(); dst += 37 {
		tr, err := TraceRouteWithOrder(cfg, dst%cfg.Inputs(), dst, nil, ro)
		if err != nil {
			t.Fatal(err)
		}
		delivered := tr.Hops[len(tr.Hops)-1].OutLine
		want, err := ro.F(dst)
		if err != nil {
			t.Fatal(err)
		}
		if delivered != want {
			t.Fatalf("delivered %d, want F(%d)=%d", delivered, dst, want)
		}
		if table[delivered] != dst {
			t.Fatalf("compensation failed: table[%d]=%d, want %d", delivered, table[delivered], dst)
		}
	}
}

// Property: for random orders, F is a bijection on destinations whose
// compensating table is its inverse.
func TestQuickRetirementBijection(t *testing.T) {
	cfg := mustCfg(t, 8, 4, 2, 3)
	f := func(seed uint32) bool {
		// Build a permutation of [0, l) from the seed.
		perm := []int{0, 1, 2}
		s := seed
		for i := len(perm) - 1; i > 0; i-- {
			s = s*1664525 + 1013904223
			j := int(s>>16) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		ro, err := NewRetirementOrder(cfg, perm)
		if err != nil {
			return false
		}
		seen := make([]bool, cfg.Outputs())
		for dst := 0; dst < cfg.Outputs(); dst++ {
			v, err := ro.F(dst)
			if err != nil || v < 0 || v >= cfg.Outputs() || seen[v] {
				return false
			}
			seen[v] = true
			back, err := ro.FInverse(v)
			if err != nil || back != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
