package edn

import (
	"fmt"
	"testing"
)

// BenchmarkRouteCycleInto tracks the zero-allocation hot path across the
// geometries the repository's experiments sweep: 1K, 4K and 16K ports,
// each under a frozen full-load vector ("fixed", the pure router cost),
// fresh uniform traffic and fresh random permutations (both generated
// in place each cycle, so the whole iteration stays allocation-free).
// One benchmark op is one network cycle — ns/op reads as ns/cycle — and
// allocs/op under -benchmem must stay at 0.
func BenchmarkRouteCycleInto(b *testing.B) {
	geometries := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2},  // EDN(64,16,4,2): the MasPar router
		{"4Kports", 16, 4, 4, 5},   // EDN(16,4,4,5)
		{"16Kports", 64, 16, 4, 3}, // EDN(64,16,4,3)
	}
	for _, g := range geometries {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		// "faulted" is uniform traffic over a 5%-dead-wire mask: the
		// masked grant kernel must hold the same 0 allocs/op bar.
		for _, pattern := range []string{"fixed", "uniform", "permutation", "faulted"} {
			b.Run(fmt.Sprintf("%s/%s", g.name, pattern), func(b *testing.B) {
				benchmarkRouteCycleInto(b, cfg, pattern)
			})
		}
	}
}

func benchmarkRouteCycleInto(b *testing.B, cfg Config, pattern string) {
	var masks *FaultMasks
	if pattern == "faulted" {
		masks = benchMasks(b, cfg)
	}
	net, err := NewNetworkWithFaults(cfg, nil, masks)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	dest := make([]int, cfg.Inputs())
	outcomes := make([]Outcome, cfg.Inputs())
	var gen IntoGenerator
	switch pattern {
	case "fixed":
		for i := range dest {
			dest[i] = rng.Intn(cfg.Outputs())
		}
	case "uniform", "faulted":
		gen = Uniform{Rate: 1, Rng: rng}
	case "permutation":
		gen = &RandomPermutation{Rng: rng}
	default:
		b.Fatalf("unknown pattern %q", pattern)
	}
	if gen != nil {
		gen.GenerateInto(dest, cfg.Outputs())
	}
	if _, err := net.RouteCycleInto(dest, outcomes); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gen != nil {
			gen.GenerateInto(dest, cfg.Outputs())
		}
		cs, err := net.RouteCycleInto(dest, outcomes)
		if err != nil {
			b.Fatal(err)
		}
		delivered = cs.Delivered
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered), "delivered")
	b.ReportMetric(float64(cfg.Inputs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mports/s")
}

// BenchmarkRouteCycleBigNetwork times one cycle of a 16K-port
// EDN(64,16,4,3) under a full random request batch.
func BenchmarkRouteCycleBigNetwork(b *testing.B) {
	cfg, err := New(64, 16, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = rng.Intn(cfg.Outputs())
	}
	n, err := NewNetwork(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := n.RouteCycle(dest); err != nil {
			b.Fatal(err)
		}
	}
}
