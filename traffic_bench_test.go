package edn

import (
	"testing"

	"edn/internal/closedloop"
	"edn/internal/xrand"
)

// BenchmarkTrafficGenerate times one cycle's request draws per kernel,
// in ns per input, at the loads and shapes the whole-job benchmark
// drives: uniform and bursty sources at 4,096 inputs (sweep-4k's
// EDN(16,4,4,5) at load 0.75, and uniform at its saturated load 1,
// where no coin takes a draw), the static and moving hot spot at 1,024
// (explain-hotspot's EDN(64,16,4,2) at load 0.8, a fifth of requests
// hot), and the closed loop's demand coins at 1,024 sources (loop-churn
// at load 0.3). Every kernel fills a caller-owned vector, so each must
// report 0 allocs/op; the CI zero-alloc gate enforces that.
func BenchmarkTrafficGenerate(b *testing.B) {
	gens := []struct {
		name    string
		inputs  int
		pattern func(*Rand) Pattern
	}{
		{"uniform/4096", 4096, func(r *Rand) Pattern { return Uniform{Rate: 0.75, Rng: r} }},
		{"uniform-saturated/4096", 4096, func(r *Rand) Pattern { return Uniform{Rate: 1, Rng: r} }},
		{"bursty/4096", 4096, func(r *Rand) Pattern { return BurstyLoad(8)(0.75, r) }},
		{"hotspot/1024", 1024, func(r *Rand) Pattern {
			return HotSpot{Rate: 0.8, Fraction: 0.2, Hot: 517, Rng: r}
		}},
		{"moving-hotspot/1024", 1024, func(r *Rand) Pattern {
			return &MovingHotSpot{Rate: 0.8, Fraction: 0.2, Hot: 517, Period: 64, Stride: 3, Rng: r}
		}},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			gen := g.pattern(NewRand(7))
			dest := make([]int, g.inputs)
			gen.GenerateInto(dest, g.inputs) // sizes a bursty source's state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.GenerateInto(dest, g.inputs)
			}
			reportPerInput(b, g.inputs)
		})
	}
	b.Run("demand/1024", func(b *testing.B) {
		rng, coin := xrand.New(7), xrand.NewCoin(0.3)
		arrived := make([]int32, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			closedloop.Arrivals(arrived, coin, rng)
		}
		reportPerInput(b, len(arrived))
	})
}

func reportPerInput(b *testing.B, inputs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(inputs), "ns/input")
}
