package core

import (
	"testing"

	"edn/internal/topology"
	"edn/internal/xrand"
)

// BenchmarkRouteCycleBigNetwork times one cycle of a 16K-port
// EDN(64,16,4,3) under a full random request batch.
func BenchmarkRouteCycleBigNetwork(b *testing.B) {
	cfg, err := topology.New(64, 16, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(7)
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
