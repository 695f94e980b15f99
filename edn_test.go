package edn

import (
	"math"
	"strings"
	"testing"
)

// edn_test.go exercises the public facade end to end, the way the
// examples and a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	// Build the MasPar router network.
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Inputs() != 1024 || cfg.Outputs() != 1024 || cfg.PathCount() != 16 {
		t.Fatalf("geometry: %d x %d, %d paths", cfg.Inputs(), cfg.Outputs(), cfg.PathCount())
	}

	// Ask the closed forms.
	if pa := PA(cfg, 1); math.Abs(pa-0.5437) > 0.001 {
		t.Fatalf("PA(1) = %.4f", pa)
	}
	if bw := Bandwidth(cfg, 1); math.Abs(bw-0.5437*1024) > 1 {
		t.Fatalf("Bandwidth = %.1f", bw)
	}
	rates := StageRates(cfg, 1)
	if len(rates) != 4 {
		t.Fatalf("stage rates: %v", rates)
	}

	// Trace one message.
	tr, err := TraceRoute(cfg, 631, 422, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hops[len(tr.Hops)-1].OutLine; got != 422 {
		t.Fatalf("trace delivered to %d", got)
	}
	if !strings.Contains(tr.String(), "crossbar") {
		t.Fatal("trace rendering lost the crossbar stage")
	}

	// Simulate a batch.
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(42)
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = rng.Intn(cfg.Outputs())
	}
	_, cs, err := net.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Offered != 1024 || cs.Delivered == 0 {
		t.Fatalf("cycle stats: %+v", cs)
	}
}

func TestTagFacade(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := EncodeTag(cfg, 54)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Dest() != 54 {
		t.Fatalf("tag round trip: %d", tag.Dest())
	}
}

// TestCorollary2IdentityFix is the Figure 5/6 story through the public
// API: the identity permutation blocks badly on EDN(64,16,4,2) under the
// standard retirement order, routes losslessly in one pass under the
// reversed order, and the compensating output permutation restores every
// destination.
func TestCorollary2IdentityFix(t *testing.T) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	identity := IdentityPattern(cfg.Inputs()).Dest

	// Standard order: exactly 1/16 of the messages survive.
	_, cs, err := net.RouteCycle(identity)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.PA(); math.Abs(got-1.0/16) > 1e-9 {
		t.Fatalf("standard-order identity PA = %.4f, want 1/16", got)
	}

	// Reversed order: feed F(dst) and undo with the output table.
	order := ReversedOrder(cfg)
	remapped := make([]int, len(identity))
	for i, d := range identity {
		f, err := order.F(d)
		if err != nil {
			t.Fatal(err)
		}
		remapped[i] = f
	}
	table, err := order.OutputPermutation()
	if err != nil {
		t.Fatal(err)
	}
	out, cs2, err := net.RouteCycle(remapped)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.PA() != 1 {
		t.Fatalf("reversed-order identity PA = %.4f, want 1 (one-pass routing)", cs2.PA())
	}
	for i, o := range out {
		if !o.Delivered() || table[o.Output] != identity[i] {
			t.Fatalf("input %d: delivered %v, compensated %d, want %d", i, o, table[o.Output], identity[i])
		}
	}
}

func TestResubmissionFacade(t *testing.T) {
	cfg, err := New(16, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Resubmission(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if model.PAPrime <= 0 || model.PAPrime >= 1 {
		t.Fatalf("PA' = %g", model.PAPrime)
	}
	if model.Efficiency() <= 0 || model.Efficiency() > 1 {
		t.Fatalf("efficiency = %g", model.Efficiency())
	}
}

func TestDilatedFacade(t *testing.T) {
	dd, err := NewDilatedDelta(4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := dd.WireRatioVersusEDN()
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 4 {
		t.Fatalf("wire ratio = %g, want 4", ratio)
	}
}

func TestPatternFacades(t *testing.T) {
	if _, err := BitReversalPattern(64); err != nil {
		t.Fatal(err)
	}
	if _, err := BitReversalPattern(63); err == nil {
		t.Fatal("expected power-of-two error")
	}
	patterns := map[string]Pattern{
		"uniform":             Uniform{Rate: 0.5, Rng: NewRand(1)},
		"hotspot":             HotSpot{Rate: 1, Fraction: 0.5, Hot: 3, Rng: NewRand(2)},
		"partial permutation": &PartialPermutation{Rate: 0.5, Rng: NewRand(3)},
	}
	for name, p := range patterns {
		for i, d := range genVec(p, 16, 16) {
			if d != NoRequest && (d < 0 || d >= 16) {
				t.Fatalf("%s: input %d requests output %d of 16", name, i, d)
			}
		}
	}
}

// genVec draws one request vector of p for a network of the given
// geometry into a fresh slice.
func genVec(p Pattern, inputs, outputs int) []int {
	dest := make([]int, inputs)
	p.GenerateInto(dest, outputs)
	return dest
}

func TestSIMDFacade(t *testing.T) {
	sys, err := NewRAEDN(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	perm := NewRand(9).Perm(sys.N())
	res, err := RoutePermutation(sys, perm, RouteOptions{Seed: 1, Scheduler: GreedyDistinctScheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < sys.Q {
		t.Fatalf("cycles %d below q", res.Cycles)
	}
	var _ Scheduler = RandomScheduler{}
	var _ Scheduler = FIFOScheduler{}
}

func TestMeasureFacades(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureUniformPA(cfg, 1, SimOptions{Cycles: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA <= 0 || res.PA > 1 {
		t.Fatalf("measured PA = %g", res.PA)
	}
	pres, err := MeasurePermutationPA(cfg, SimOptions{Cycles: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pres.PA <= res.PA {
		t.Fatalf("permutation PA %.4f should beat uniform %.4f", pres.PA, res.PA)
	}
	m, err := SimulateMIMD(cfg, 0.5, MIMDOptions{Cycles: 200, Warmup: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.PA <= 0 {
		t.Fatalf("MIMD measured: %+v", m)
	}
	fp, err := MeasurePA(cfg, IdentityPattern(cfg.Inputs()), SimOptions{Cycles: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp.PA <= 0 {
		t.Fatalf("fixed pattern PA = %g", fp.PA)
	}
}

func TestConstructorFacades(t *testing.T) {
	if _, err := NewCrossbar(16); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDelta(8, 8, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := New(7, 4, 2, 1); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewRetirementOrder(mustNew(t, 8, 4, 2, 3), []int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !StandardOrder(mustNew(t, 8, 4, 2, 3)).IsStandard() {
		t.Fatal("standard order not standard")
	}
}

func mustNew(t *testing.T, a, b, c, l int) Config {
	t.Helper()
	cfg, err := New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
