package edn

import (
	"testing"

	"edn/internal/switchfab"
)

// bench_test.go regenerates every evaluation artifact of the paper under
// the Go benchmark harness — one benchmark per figure/table, each
// reporting the headline quantity via b.ReportMetric so `go test -bench`
// output doubles as the reproduction record:
//
//	FIG2  -> BenchmarkFigure2HyperbarRouting
//	FIG7  -> BenchmarkFigure7
//	FIG8  -> BenchmarkFigure8
//	FIG11 -> BenchmarkFigure11
//	EQ2/3 -> BenchmarkCostModel
//	SEC5  -> BenchmarkSection5Model / BenchmarkSection5Simulation
//
// plus throughput benchmarks for the underlying engines (routing trace,
// cycle-level simulator, MIMD system).

// BenchmarkFigure2HyperbarRouting arbitrates the paper's worked H(8->4x2)
// example once per iteration.
func BenchmarkFigure2HyperbarRouting(b *testing.B) {
	h := Hyperbar{A: 8, B: 4, C: 2}
	digits := []int{3, 2, 3, 1, 2, 2, 0, 3}
	rejected := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rej, err := h.Route(digits, switchfab.PriorityArbiter{})
		if err != nil {
			b.Fatal(err)
		}
		rejected = rej
	}
	b.ReportMetric(float64(rejected), "rejected")
}

// BenchmarkFigure7 regenerates the full Figure 7 sweep (8-I/O hyperbar
// families up to 10^6 inputs) per iteration.
func BenchmarkFigure7(b *testing.B) {
	var pa float64
	for i := 0; i < b.N; i++ {
		chart, err := Figure7(DefaultMaxInputs)
		if err != nil {
			b.Fatal(err)
		}
		s := chart.Series[1] // EDN(8,2,4,*)
		pa = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(pa, "PA(1)@1e6")
}

// BenchmarkFigure8 regenerates the full Figure 8 sweep (16-I/O hyperbar
// families) per iteration.
func BenchmarkFigure8(b *testing.B) {
	var pa float64
	for i := 0; i < b.N; i++ {
		chart, err := Figure8(DefaultMaxInputs)
		if err != nil {
			b.Fatal(err)
		}
		s := chart.Series[1] // EDN(16,2,8,*)
		pa = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(pa, "PA(1)@1e6")
}

// BenchmarkFigure11 regenerates the resubmission comparison (Equation 10
// fixed points across two families) per iteration.
func BenchmarkFigure11(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		chart, err := Figure11(DefaultMaxInputs)
		if err != nil {
			b.Fatal(err)
		}
		ign, res := chart.Series[0], chart.Series[1]
		gap = ign.Y[len(ign.Y)-1] - res.Y[len(res.Y)-1]
	}
	b.ReportMetric(gap, "resubmit-penalty")
}

// BenchmarkCostModel evaluates the Equation 2/3 closed forms and exact
// sums for the Figure 8 families (the cost table of edn cost).
func BenchmarkCostModel(b *testing.B) {
	cfgs := make([]Config, 0, 8)
	for _, fam := range []Family{{A: 16, B: 16, C: 1}, {A: 16, B: 8, C: 2}, {A: 16, B: 4, C: 4}, {A: 16, B: 2, C: 8}} {
		cs, err := fam.Configs(2, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, cs...)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			sink = cfg.CrosspointCostClosedForm() + cfg.WireCostClosedForm() +
				float64(cfg.CrosspointCount()) + float64(cfg.WireCount())
		}
	}
	b.ReportMetric(sink, "last-cost")
}

// BenchmarkSection5Model evaluates the Section 5.1 analytic permutation
// time for the MasPar MP-1 system per iteration.
func BenchmarkSection5Model(b *testing.B) {
	sys := MasParMP1()
	var cycles float64
	for i := 0; i < b.N; i++ {
		model, err := ExpectedPermutationTime(sys.Network, sys.Q)
		if err != nil {
			b.Fatal(err)
		}
		cycles = model.Cycles()
	}
	b.ReportMetric(cycles, "cycles")
}

// BenchmarkSection5Simulation routes one full random permutation over the
// 16K-PE MasPar system per iteration (the Monte-Carlo counterpart of the
// Section 5.1 estimate).
func BenchmarkSection5Simulation(b *testing.B) {
	sys := MasParMP1()
	rng := NewRand(1)
	var cycles int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		perm := rng.Perm(sys.N())
		b.StartTimer()
		res, err := RoutePermutation(sys, perm, RouteOptions{Seed: rng.Uint64() | 1})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkEquation4 evaluates PA for the MasPar network per iteration —
// the innermost primitive of every figure.
func BenchmarkEquation4(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	var pa float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa = PA(cfg, 1)
	}
	b.ReportMetric(pa, "PA(1)")
}

// BenchmarkRouteCycle measures simulator throughput: one full-load cycle
// of the 1024-port MasPar network per iteration.
func BenchmarkRouteCycle(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = rng.Intn(cfg.Outputs())
	}
	b.ResetTimer()
	var delivered int
	for i := 0; i < b.N; i++ {
		_, cs, err := net.RouteCycle(dest)
		if err != nil {
			b.Fatal(err)
		}
		delivered = cs.Delivered
	}
	b.ReportMetric(float64(delivered), "delivered")
}

// BenchmarkLemma1Trace walks one message end to end per iteration.
func BenchmarkLemma1Trace(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	choices := []int{1, 2}
	for i := 0; i < b.N; i++ {
		if _, err := TraceRoute(cfg, 631, 422, choices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMIMDSimulation runs a short Section 4 resubmission system per
// iteration (EDN(16,4,4,2), r=0.5).
func BenchmarkMIMDSimulation(b *testing.B) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	var pa float64
	for i := 0; i < b.N; i++ {
		res, err := SimulateMIMD(cfg, 0.5, MIMDOptions{Cycles: 200, Warmup: 50, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		pa = res.PA
	}
	b.ReportMetric(pa, "PA'")
}
