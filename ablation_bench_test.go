package edn

import (
	"testing"

	"edn/internal/cliutil"
)

// ablation_bench_test.go holds the design-choice ablations DESIGN.md
// calls out, expressed as benchmarks so their headline metrics land in
// bench_output.txt next to the figure reproductions:
//
//   - arbitration policy (priority vs round-robin vs random) — the
//     closed forms are arbitration-agnostic, so PA must not move;
//   - EDN vs d-dilated delta at matched ports and switch hardware;
//   - retirement order on the identity permutation (Figure 5 vs 6);
//   - RA-EDN scheduler choice;
//   - design-space enumeration and netlist construction throughput.

// BenchmarkAblationArbitration measures simulator PA at full load under
// each arbitration policy on EDN(16,4,4,2).
func BenchmarkAblationArbitration(b *testing.B) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"priority", "roundrobin", "random"} {
		b.Run(name, func(b *testing.B) {
			factory, err := cliutil.ArbiterFactory(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			var pa float64
			for i := 0; i < b.N; i++ {
				res, err := MeasureUniformPA(cfg, 1, SimOptions{Cycles: 200, Seed: uint64(i) + 1, Factory: factory})
				if err != nil {
					b.Fatal(err)
				}
				pa = res.PA
			}
			b.ReportMetric(pa, "PA")
		})
	}
}

// BenchmarkAblationDilatedVsEDN compares the Equation 4 acceptance of a
// 4-dilated radix-4 delta against its equivalent EDN at the same port
// count, reporting the wire ratio the paper's introduction claims.
func BenchmarkAblationDilatedVsEDN(b *testing.B) {
	dd, err := NewDilatedDelta(4, 4, 4) // 256 ports
	if err != nil {
		b.Fatal(err)
	}
	equiv, err := dd.EquivalentEDN()
	if err != nil {
		b.Fatal(err)
	}
	var gap, ratio float64
	for i := 0; i < b.N; i++ {
		gap = dd.PA(1) - PA(equiv, 1)
		r, err := dd.WireRatioVersusEDN()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(gap, "PA-gap")
	b.ReportMetric(ratio, "wire-ratio")
}

// BenchmarkAblationRetirementOrder routes the identity permutation on
// the MasPar geometry under both orders (the Figure 5 vs Figure 6
// comparison), one pair of passes per iteration.
func BenchmarkAblationRetirementOrder(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	identity := IdentityPattern(cfg.Inputs()).Dest
	order := ReversedOrder(cfg)
	remapped := make([]int, len(identity))
	for i, d := range identity {
		f, err := order.F(d)
		if err != nil {
			b.Fatal(err)
		}
		remapped[i] = f
	}
	var standardPA, reversedPA float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cs1, err := net.RouteCycle(identity)
		if err != nil {
			b.Fatal(err)
		}
		_, cs2, err := net.RouteCycle(remapped)
		if err != nil {
			b.Fatal(err)
		}
		standardPA, reversedPA = cs1.PA(), cs2.PA()
	}
	b.ReportMetric(standardPA, "PA-standard")
	b.ReportMetric(reversedPA, "PA-reversed")
}

// BenchmarkAblationScheduler delivers one random permutation on a
// 64-port RA-EDN per iteration under each cluster schedule.
func BenchmarkAblationScheduler(b *testing.B) {
	sys, err := NewRAEDN(4, 4, 2, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []Scheduler{RandomScheduler{}, FIFOScheduler{}, GreedyDistinctScheduler{}} {
		b.Run(sched.Name(), func(b *testing.B) {
			rng := NewRand(5)
			var cycles int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				perm := rng.Perm(sys.N())
				b.StartTimer()
				res, err := RoutePermutation(sys, perm, RouteOptions{Seed: rng.Uint64() | 1, Scheduler: sched})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkDesignExploration enumerates and Pareto-reduces the full
// 4096-port design space per iteration.
func BenchmarkDesignExploration(b *testing.B) {
	var frontSize int
	for i := 0; i < b.N; i++ {
		points, err := EnumerateDesigns(4096, 64)
		if err != nil {
			b.Fatal(err)
		}
		frontSize = len(ParetoFront(points))
	}
	b.ReportMetric(float64(frontSize), "front-size")
}

// BenchmarkNetlistBuild materializes the MasPar router's full physical
// netlist per iteration.
func BenchmarkNetlistBuild(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	var wires int
	for i := 0; i < b.N; i++ {
		nl, err := BuildNetlist(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wires = nl.WireCount()
	}
	b.ReportMetric(float64(wires), "wires")
}

// BenchmarkMultipassRandomPermutation drains one random permutation over
// repeated passes on the MasPar geometry per iteration.
func BenchmarkMultipassRandomPermutation(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(3)
	var passes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		perm := rng.Perm(cfg.Inputs())
		b.StartTimer()
		res, err := RouteMultipass(cfg, perm, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		passes = res.Passes
	}
	b.ReportMetric(float64(passes), "passes")
}
