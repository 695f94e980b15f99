package edn

import (
	"fmt"
	"testing"
)

// BenchmarkQueueCycle tracks the buffered packet-level advance loop at
// the same geometries BenchmarkRouteCycleInto uses for the unbuffered
// engine: 1K and 4K ports under sustained uniform load. One benchmark
// op is one network cycle — FIFO-head arbitration across every stage,
// interstage transfers, injection and latency recording — and, like the
// unbuffered hot path, the bounded-depth steady state must stay at
// 0 allocs/op under -benchmem (all ring, scratch and histogram storage
// is preallocated at construction).
func BenchmarkQueueCycle(b *testing.B) {
	geometries := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2}, // EDN(64,16,4,2): the MasPar router
		{"4Kports", 16, 4, 4, 5},  // EDN(16,4,4,5)
	}
	configs := []struct {
		name    string
		depth   int
		policy  QueuePolicy
		faulted bool
	}{
		{"depth1-drop", 1, QueueDrop, false},                 // the core-equivalent corner
		{"depth4-backpressure", 4, QueueBackpressure, false}, // the store-and-forward default
		{"depth4-drop-faulted", 4, QueueDrop, true},          // degraded mode: 5% dead wires
		{"depth0-backpressure", 0, QueueBackpressure, false}, // the unbuffered wave sweep
	}
	for _, g := range geometries {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		for _, qc := range configs {
			b.Run(fmt.Sprintf("%s/%s", g.name, qc.name), func(b *testing.B) {
				qopts := QueueOptions{Depth: qc.depth, Policy: qc.policy}
				if qc.faulted {
					qopts.Faults = benchMasks(b, cfg)
				}
				benchmarkQueueCycle(b, cfg, qopts)
			})
		}
	}
}

// benchMasks compiles the shared degraded-mode fixture: 5% of the
// interstage wires dead, so the masked kernels — which must also stay
// at 0 allocs/op — sit under the same CI gate as the healthy ones.
func benchMasks(b *testing.B, cfg Config) *FaultMasks {
	b.Helper()
	m, err := CompileFaults(cfg, BernoulliFaults(cfg, FaultWires, 0.05, NewRand(13)))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchmarkQueueCycle(b *testing.B, cfg Config, qopts QueueOptions) {
	net, err := NewQueueNetwork(cfg, qopts)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	gen := Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, cfg.Inputs())
	// Reach steady state (queues filled to their operating point) before
	// the measured window.
	for i := 0; i < 50; i++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tot := net.Totals()
	b.ReportMetric(float64(tot.Delivered)/float64(net.Now()), "delivered/cycle")
	b.ReportMetric(net.Latency().Quantile(0.99), "p99-cycles")
	b.ReportMetric(float64(cfg.Inputs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mports/s")
	reportPerWire(b, cfg.WireCount())
}

// reportPerWire reports the cycle's cost per wire-stage-cycle, ns/op
// over the wires the measured fabrics hold (perfbench's ns_per_wsc).
func reportPerWire(b *testing.B, wires int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(wires), "ns/wsc")
}
