package edn

import (
	"math"
	"strings"
	"testing"
)

// experiments_test.go holds the golden paper-vs-measured assertions: one
// test per evaluation artifact of the paper, checking the *shape* the
// paper reports (who wins, by roughly what factor, where curves sit) on
// the exact configurations the paper plots. EXPERIMENTS.md records the
// corresponding numbers.

func seriesByName(t *testing.T, c Chart, name string) ChartSeries {
	t.Helper()
	for _, s := range c.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("chart %q has no series %q", c.Title, name)
	return ChartSeries{}
}

func valueAt(t *testing.T, s ChartSeries, x float64) float64 {
	t.Helper()
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i]
		}
	}
	t.Fatalf("series %q has no point at x=%g", s.Name, x)
	return 0
}

// TestFigure7Shape checks Figure 7's qualitative content: the crossbar
// dominates, capacity ordering holds at every common size, the delta
// family decays fastest, and the EDN(8,2,4,*) family stays near the
// crossbar even at 10^6 inputs (the paper's headline claim).
func TestFigure7Shape(t *testing.T) {
	chart, err := Figure7(DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 4 {
		t.Fatalf("Figure 7 has %d series, want 4", len(chart.Series))
	}
	xbar := seriesByName(t, chart, "Full Crossbar")
	c4 := seriesByName(t, chart, "EDN(8,2,4,*)")
	c2 := seriesByName(t, chart, "EDN(8,4,2,*)")
	c1 := seriesByName(t, chart, "EDN(8,8,1,*)")

	// Common sizes of all three families: 8 and 512 and 32768.
	for _, size := range []float64{512, 32768} {
		pa1 := valueAt(t, c1, size)
		pa2 := valueAt(t, c2, size)
		pa4 := valueAt(t, c4, size)
		if !(pa1 < pa2 && pa2 < pa4) {
			t.Errorf("size %g: capacity ordering violated: %.4f, %.4f, %.4f", size, pa1, pa2, pa4)
		}
	}
	// Crossbar floor is 1 - 1/e; every family sits below the crossbar at
	// matched size.
	last := xbar.Y[len(xbar.Y)-1]
	if last < 1-1/math.E-1e-3 || last > 0.70 {
		t.Errorf("crossbar tail %.4f out of expected band", last)
	}
	// Delta decays hard: below 0.45 by 512 inputs (the "falls off
	// rapidly" claim).
	if pa := valueAt(t, c1, 512); pa > 0.45 {
		t.Errorf("delta at 512 inputs = %.4f, expected < 0.45", pa)
	}
	big := c4.X[len(c4.X)-1]
	if big < 1<<19 {
		t.Errorf("EDN(8,2,4,*) sweep stops at %g inputs; want ~1e6", big)
	}
	// The c=4 family degrades gently: still above 0.35 at ~1e6 inputs and
	// well clear of the delta family at the largest common size.
	paBig := c4.Y[len(c4.Y)-1]
	if paBig < 0.35 {
		t.Errorf("EDN(8,2,4,*) at %g inputs = %.4f; expected a gentle decay (>0.35)", big, paBig)
	}
	if pa4, pa1 := valueAt(t, c4, 32768), valueAt(t, c1, 32768); pa4 < 1.4*pa1 {
		t.Errorf("EDN(8,2,4,*) %.4f should exceed the delta %.4f by >1.4x at 32768", pa4, pa1)
	}
}

// TestFigure8Shape checks Figure 8: four 16-wide families, same capacity
// ordering, and strictly better than the 8-wide families of Figure 7 at
// matched capacity and size.
func TestFigure8Shape(t *testing.T) {
	chart, err := Figure8(DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 5 {
		t.Fatalf("Figure 8 has %d series, want 5", len(chart.Series))
	}
	c8 := seriesByName(t, chart, "EDN(16,2,8,*)")
	c4 := seriesByName(t, chart, "EDN(16,4,4,*)")
	c2 := seriesByName(t, chart, "EDN(16,8,2,*)")
	c1 := seriesByName(t, chart, "EDN(16,16,1,*)")

	// Common sizes: the four families share sizes where 2^l*8 = 4^m*4 =
	// 8^n*2 = 16^k intersect; 65536 = 2^13*8 = 4^7*4 = 8^5*2 = 16^4.
	const size = 65536
	pa1 := valueAt(t, c1, size)
	pa2 := valueAt(t, c2, size)
	pa4 := valueAt(t, c4, size)
	pa8 := valueAt(t, c8, size)
	if !(pa1 < pa2 && pa2 < pa4 && pa4 < pa8) {
		t.Errorf("capacity ordering violated at %d: %.4f %.4f %.4f %.4f", size, pa1, pa2, pa4, pa8)
	}

	// Cross-figure: 16-wide c=2 beats 8-wide c=2 at 8192 inputs.
	fig7, err := Figure7(DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	pa842 := valueAt(t, seriesByName(t, fig7, "EDN(8,4,2,*)"), 8192)
	pa1682 := valueAt(t, c2, 8192)
	if pa1682 <= pa842 {
		t.Errorf("EDN(16,8,2,*) %.4f should beat EDN(8,4,2,*) %.4f at 8192 inputs", pa1682, pa842)
	}
}

// TestFigure11Shape checks Figure 11: resubmission strictly lowers the
// sustained acceptance for both plotted families at every size, and the
// richer EDN(16,4,4,*) dominates EDN(4,2,2,*) under both regimes.
func TestFigure11Shape(t *testing.T) {
	chart, err := Figure11(DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 4 {
		t.Fatalf("Figure 11 has %d series, want 4", len(chart.Series))
	}
	ign1644 := seriesByName(t, chart, "EDN(16,4,4,*) rejected requests ignored")
	res1644 := seriesByName(t, chart, "EDN(16,4,4,*) rejected requests resubmitted")
	ign422 := seriesByName(t, chart, "EDN(4,2,2,*) rejected requests ignored")
	res422 := seriesByName(t, chart, "EDN(4,2,2,*) rejected requests resubmitted")

	check := func(ign, res ChartSeries) {
		if len(ign.X) != len(res.X) {
			t.Fatalf("series length mismatch: %d vs %d", len(ign.X), len(res.X))
		}
		for i := range ign.X {
			if res.Y[i] > ign.Y[i]+1e-12 {
				t.Errorf("%s at %g: resubmitted %.4f above ignored %.4f", res.Name, res.X[i], res.Y[i], ign.Y[i])
			}
		}
	}
	check(ign1644, res1644)
	check(ign422, res422)

	// Common size 1024 = 4^4*4 = 2^9*2: the 16-wide family wins under
	// both regimes, and resubmission hurts the weak network more.
	gapSmall := valueAt(t, ign422, 1024) - valueAt(t, res422, 1024)
	gapBig := valueAt(t, ign1644, 1024) - valueAt(t, res1644, 1024)
	if valueAt(t, res1644, 1024) <= valueAt(t, res422, 1024) {
		t.Error("EDN(16,4,4,*) should dominate EDN(4,2,2,*) under resubmission")
	}
	if gapSmall <= gapBig {
		t.Errorf("resubmission penalty should be larger for the weaker network: %.4f vs %.4f", gapSmall, gapBig)
	}
}

// TestMasParExample pins the Section 5.1 case study through the public
// facade (the internal packages pin the same numbers independently).
func TestMasParExample(t *testing.T) {
	sys := MasParMP1()
	model, err := ExpectedPermutationTime(sys.Network, sys.Q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.PA1-0.544) > 0.001 {
		t.Errorf("PA(1) = %.4f, want 0.544", model.PA1)
	}
	if math.Abs(model.Cycles()-33.41) > 0.05 {
		t.Errorf("model cycles %.2f, want 33.41 (paper prints 34.41)", model.Cycles())
	}
	report, err := MasParReport(false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RA-EDN(16,4,2,16)", "EDN(64,16,4,2)", "0.544", "34.41"} {
		if !strings.Contains(report, want) {
			t.Errorf("MasPar report missing %q:\n%s", want, report)
		}
	}
}

// TestCostTableContent: the Equation 2/3 table carries the crossbar's
// quadratic blowup and the EDN families' near-delta cost — the paper's
// "crossbar performance at delta-like cost" claim.
func TestCostTableContent(t *testing.T) {
	table, err := CostTable(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EDN(16,16,1,", "EDN(16,4,4,", "crosspoints", "wires", "dilated delta"} {
		if !strings.Contains(table, want) {
			t.Errorf("cost table missing %q:\n%s", want, table)
		}
	}

	// Quantitative spot check at 4096 ports: crossbar crosspoints dwarf
	// the EDN's by orders of magnitude, while the EDN stays within a
	// small factor of the pure delta.
	xb, err := NewCrossbar(4096)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := NewDelta(16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	ednCfg, err := New(16, 4, 4, 5) // 4^5*4 = 4096 inputs
	if err != nil {
		t.Fatal(err)
	}
	if ednCfg.Inputs() != 4096 || delta.Inputs() != 4096 {
		t.Fatalf("geometry mismatch: edn %d delta %d", ednCfg.Inputs(), delta.Inputs())
	}
	xbCost := float64(xb.CrosspointCount())
	ednCost := float64(ednCfg.CrosspointCount())
	deltaCost := float64(delta.CrosspointCount())
	if xbCost/ednCost < 20 {
		t.Errorf("crossbar %.0f should cost >20x the EDN %.0f", xbCost, ednCost)
	}
	if ednCost/deltaCost > 8 {
		t.Errorf("EDN %.0f should stay within 8x of delta %.0f", ednCost, deltaCost)
	}
	// And the performance side of the trade, using the highest-capacity
	// 16-wide family (EDN(16,2,8,*)) at the same 4096 ports: close to the
	// crossbar, far above the delta.
	highCap, err := New(16, 2, 8, 9) // 2^9*8 = 4096 inputs
	if err != nil {
		t.Fatal(err)
	}
	paEDN := PA(highCap, 1)
	paDelta := PA(delta, 1)
	paXbar := CrossbarPA(4096, 1)
	if paXbar-paEDN > 0.15 {
		t.Errorf("EDN(16,2,8,9) PA %.4f should track crossbar %.4f", paEDN, paXbar)
	}
	if paEDN < 1.3*paDelta {
		t.Errorf("EDN(16,2,8,9) PA %.4f should beat delta %.4f by >1.3x", paEDN, paDelta)
	}
}

// TestFigureChartsRenderAndExport: every figure renders to ASCII and
// exports CSV without error — the harness the cmd tools rely on.
func TestFigureChartsRenderAndExport(t *testing.T) {
	for _, build := range []func(int) (Chart, error){Figure7, Figure8, Figure11} {
		chart, err := build(1 << 14)
		if err != nil {
			t.Fatal(err)
		}
		if out := chart.Render(); !strings.Contains(out, "Figure") {
			t.Errorf("render missing title:\n%s", out)
		}
		var sb strings.Builder
		if err := chart.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(sb.String(), "\n"); lines < 10 {
			t.Errorf("CSV too small: %d lines", lines)
		}
	}
}

// TestDegradationCurveShape pins the PR 3 headline experiment (the
// Example_degraded run, same parameters): under rising
// interstage-wire fault fractions the delivered bandwidth of both
// networks decays monotonically, and the expanded EDN(4,4,2,3) —
// two wires per bucket, 8 paths per pair — strictly dominates its
// single-path delta corner EDN(4,4,1,2) in per-input throughput at
// every fraction, fault-free included. Nested per-shard fault plans
// with identical traffic replays make the sweep deterministic, so
// these are exact assertions, not statistical ones.
func TestDegradationCurveShape(t *testing.T) {
	expanded, err := New(4, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := New(4, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	aopts := AvailabilityOptions{
		Fractions: []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5},
		Mode:      FaultWires,
		Load:      1,
	}
	qopts := QueueOptions{Depth: 4, Policy: QueueDrop}
	opts := SimOptions{Cycles: 4000, Warmup: 1000, Seed: 1}
	const shards = 4

	sweep := func(cfg Config) []AvailabilityResult {
		res, err := AvailabilitySweep(EDNNet{Config: cfg, Queue: qopts}, aopts, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exp, del := sweep(expanded), sweep(delta)

	for name, res := range map[string][]AvailabilityResult{"expanded": exp, "delta": del} {
		for i := 1; i < len(res); i++ {
			if res[i].Throughput > res[i-1].Throughput {
				t.Errorf("%s: delivered bandwidth rose %.3f -> %.3f at fraction %g",
					name, res[i-1].Throughput, res[i].Throughput, res[i].FaultFraction)
			}
			if res[i].ReachableFraction > res[i-1].ReachableFraction {
				t.Errorf("%s: reachability rose at fraction %g", name, res[i].FaultFraction)
			}
		}
	}
	for i := range exp {
		if exp[i].ThroughputPerInput <= del[i].ThroughputPerInput {
			t.Errorf("fraction %g: expanded %.3f/input does not dominate delta corner %.3f/input",
				exp[i].FaultFraction, exp[i].ThroughputPerInput, del[i].ThroughputPerInput)
		}
		// Reachability: the expanded network has ~7x the wire population,
		// so at tiny fractions it absorbs more absolute faults and can
		// momentarily trail; from 10% on, multipath must dominate.
		if exp[i].FaultFraction >= 0.1 && exp[i].ReachableFraction < del[i].ReachableFraction {
			t.Errorf("fraction %g: expanded reaches %.3f of outputs, delta %.3f — multipath should not reach less",
				exp[i].FaultFraction, exp[i].ReachableFraction, del[i].ReachableFraction)
		}
	}
	// The headline numbers EXPERIMENTS.md quotes: at a 20% wire fault
	// fraction the expanded network still delivers more per input than
	// the delta corner does fault-free.
	if exp[4].FaultFraction != 0.2 {
		t.Fatalf("fraction axis shifted: %g", exp[4].FaultFraction)
	}
	if exp[4].ThroughputPerInput <= del[0].ThroughputPerInput {
		t.Errorf("expanded at 20%% faults (%.3f/input) should beat the fault-free delta corner (%.3f/input)",
			exp[4].ThroughputPerInput, del[0].ThroughputPerInput)
	}
}
