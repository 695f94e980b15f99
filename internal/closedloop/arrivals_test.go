package closedloop

import (
	"math"
	"testing"

	"edn/internal/xrand"
)

// refArrivals is the per-source demand loop Arrivals replaced, kept as
// the oracle: one Bool per source, in source order.
func refArrivals(sources int, rate float64, rng *xrand.Rand) []int32 {
	var arrived []int32
	for i := 0; i < sources; i++ {
		if rng.Bool(rate) {
			arrived = append(arrived, int32(i))
		}
	}
	return arrived
}

// TestArrivalsMatchReference pins the demand coins bit for bit: the
// same arriving sources in the same order, and the demand stream left
// at the same draw, over the edge and interior rates, several source
// counts and seeds, call after call.
func TestArrivalsMatchReference(t *testing.T) {
	rates := []float64{-1, 0, 1e-300, 0.3, 0.5, 1 - 0x1p-53, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, rate := range rates {
		for _, sources := range []int{1, 3, 1024} {
			for _, seed := range []uint64{1, 2, 0x9e3779b97f4a7c15} {
				rng, ref := xrand.New(seed), xrand.New(seed)
				into := make([]int32, sources)
				for c := 0; c < 4; c++ {
					got := Arrivals(into, xrand.NewCoin(rate), rng)
					want := refArrivals(sources, rate, ref)
					if len(got) != len(want) {
						t.Fatalf("rate %g, %d sources, seed %d, call %d: %d arrivals, reference %d", rate, sources, seed, c, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("rate %g, %d sources, seed %d, call %d: arrival %d is source %d, reference %d", rate, sources, seed, c, k, got[k], want[k])
						}
					}
					if a, b := *rng, *ref; a.Uint64() != b.Uint64() {
						t.Fatalf("rate %g, %d sources, seed %d, call %d: demand stream position differs from the reference", rate, sources, seed, c)
					}
				}
			}
		}
	}
}
