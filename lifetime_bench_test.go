package edn

import (
	"fmt"
	"testing"
)

// BenchmarkLifetimeEpoch tracks the epoch primitive of the lifecycle
// simulation — swap a precompiled fault mask into a running engine,
// then advance one cycle — at the same geometries the RouteCycleInto
// and QueueCycle benchmarks use. One benchmark op is one epoch
// boundary's worth of work with a single-cycle dwell: the worst case
// for swap overhead, since real epochs amortize one swap over hundreds
// of cycles. Like the other steady-state loops, it must report exactly
// 0 allocs/op under -benchmem (mask compilation is off the hot path;
// the swap itself only repoints rows and rescans the preallocated
// ring/bucket availability state), and the CI zero-alloc gate enforces
// that.
func BenchmarkLifetimeEpoch(b *testing.B) {
	geometries := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2}, // EDN(64,16,4,2): the MasPar router
		{"4Kports", 16, 4, 4, 5},  // EDN(16,4,4,5)
	}
	for _, g := range geometries {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		// The epoch timeline alternates two 5%-dead-wire masks and the
		// full repair, so every swap direction (fault -> fault, fault ->
		// empty, empty -> fault) sits under the gate.
		masks := []*FaultMasks{
			benchMasks(b, cfg, FaultWires),
			mustMasks(b, cfg, BernoulliFaults(cfg, FaultWires, 0.05, NewRand(29))),
			mustMasks(b, cfg, FaultSet{}),
		}
		b.Run(fmt.Sprintf("%s/core", g.name), func(b *testing.B) {
			benchmarkLifetimeEpochCore(b, cfg, masks)
		})
		b.Run(fmt.Sprintf("%s/queue", g.name), func(b *testing.B) {
			benchmarkLifetimeEpochQueue(b, cfg, masks)
		})
	}
}

func mustMasks(b *testing.B, cfg Config, set FaultSet) *FaultMasks {
	b.Helper()
	m, err := CompileFaults(cfg, set)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchmarkLifetimeEpochCore(b *testing.B, cfg Config, masks []*FaultMasks) {
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	gen := Uniform{Rate: 1, Rng: rng}
	dest := make([]int, cfg.Inputs())
	out := make([]Outcome, cfg.Inputs())
	gen.GenerateInto(dest, cfg.Outputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.UpdateFaults(masks[i%len(masks)]); err != nil {
			b.Fatal(err)
		}
		if _, err := net.RouteCycleInto(dest, out); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkLifetimeEpochQueue(b *testing.B, cfg Config, masks []*FaultMasks) {
	net, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueDrop})
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	gen := Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, cfg.Inputs())
	// Reach ring steady state before measuring, as BenchmarkQueueCycle
	// does.
	for i := 0; i < 50; i++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.UpdateFaults(masks[i%len(masks)]); err != nil {
			b.Fatal(err)
		}
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tot := net.Totals()
	b.ReportMetric(float64(tot.Delivered)/float64(net.Now()), "delivered/cycle")
}
