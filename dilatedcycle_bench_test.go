package edn

import (
	"fmt"
	"testing"
)

// BenchmarkDilatedQueueCycle tracks the dilated packet engine's advance
// loop and its epoch primitive at the counterparts of the geometries
// the other hot-path benchmarks use: the equal-redundancy dilated
// deltas of the 1K-port MasPar router EDN(64,16,4,2) and the 4K-port
// EDN(16,4,4,5). One op of the advance sub-benchmarks is one network
// cycle under sustained uniform load; the swap sub-benchmarks prepend
// an UpdateFaults mask swap, alternating two 5%-dead-sub-wire masks and
// the full repair so every swap direction is exercised. Like the
// RouteCycleInto/QueueCycle/LifetimeEpoch families, every variant must
// report exactly 0 allocs/op under -benchmem — all ring, scratch and
// mask-view storage is preallocated — and the CI zero-alloc gate
// enforces that.
func BenchmarkDilatedQueueCycle(b *testing.B) {
	parents := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2}, // counterpart: 4-dilated delta(b=2,l=10)
		{"4Kports", 16, 4, 4, 5},  // counterpart: 4-dilated delta(b=4,l=6)
	}
	for _, g := range parents {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		dcfg, err := DilatedCounterpart(cfg)
		if err != nil {
			b.Fatal(err)
		}
		masks := []*DilatedMasks{
			mustDilatedMasks(b, dcfg, BernoulliDilatedSubWires(dcfg, 0.05, NewRand(13))),
			mustDilatedMasks(b, dcfg, BernoulliDilatedSubWires(dcfg, 0.05, NewRand(29))),
			mustDilatedMasks(b, dcfg, FaultSet{}),
		}
		for _, qc := range []struct {
			name   string
			depth  int
			policy QueuePolicy
		}{
			{"depth4-drop", 4, QueueDrop},
			{"depth4-backpressure", 4, QueueBackpressure},
			{"depth0-backpressure", 0, QueueBackpressure}, // the unbuffered wave sweep
		} {
			b.Run(fmt.Sprintf("%s/%s/advance", g.name, qc.name), func(b *testing.B) {
				benchmarkDilatedCycle(b, dcfg, DilatedQueueOptions{Depth: qc.depth, Policy: qc.policy}, nil)
			})
		}
		b.Run(fmt.Sprintf("%s/depth4-drop/swap", g.name), func(b *testing.B) {
			benchmarkDilatedCycle(b, dcfg, DilatedQueueOptions{Depth: 4, Policy: QueueDrop}, masks)
		})
	}
}

func mustDilatedMasks(b *testing.B, cfg DilatedDelta, set FaultSet) *DilatedMasks {
	b.Helper()
	m, err := CompileDilatedMasks(cfg, set)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchmarkDilatedCycle runs the steady-state loop; a non-nil mask
// rotation swaps one in before every cycle (the LifetimeEpoch shape:
// worst-case swap amortization, one cycle of dwell).
func benchmarkDilatedCycle(b *testing.B, dcfg DilatedDelta, dopts DilatedQueueOptions, masks []*DilatedMasks) {
	net, err := NewDilatedQueueNetwork(dcfg, dopts)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	gen := Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, dcfg.Ports())
	// Reach ring steady state before the measured window.
	for i := 0; i < 50; i++ {
		gen.GenerateInto(dest, dcfg.Ports())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if masks != nil {
			if err := net.UpdateFaults(masks[i%len(masks)]); err != nil {
				b.Fatal(err)
			}
		}
		gen.GenerateInto(dest, dcfg.Ports())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tot := net.Totals()
	b.ReportMetric(float64(tot.Delivered)/float64(net.Now()), "delivered/cycle")
	b.ReportMetric(net.Latency().Quantile(0.99), "p99-cycles")
	b.ReportMetric(float64(dcfg.Ports())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mports/s")
	reportPerWire(b, dcfg.WireCount())
}
