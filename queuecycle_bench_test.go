package edn

import (
	"fmt"
	"testing"

	"edn/internal/cliutil"
)

// BenchmarkQueueCycle tracks the buffered packet-level advance loop at
// the same geometries BenchmarkRouteCycleInto uses for the unbuffered
// engine: 1K and 4K ports under sustained uniform load. One benchmark
// op is one network cycle — FIFO-head arbitration across every stage,
// interstage transfers, injection and latency recording — and, like the
// unbuffered hot path, the bounded-depth steady state must stay at
// 0 allocs/op under -benchmem (all ring, scratch and histogram storage
// is preallocated at construction). The roundrobin and random cases
// take the arbiter walk instead of the fused priority path, with the
// CLI's arbiter factories; the deadbuckets case's 5% dead switches
// leave buckets without a live wire, so its depth-0 packets park behind
// them and the parking walk runs every cycle.
func BenchmarkQueueCycle(b *testing.B) {
	geometries := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2}, // EDN(64,16,4,2): the MasPar router
		{"4Kports", 16, 4, 4, 5},  // EDN(16,4,4,5)
	}
	configs := []struct {
		name   string
		depth  int
		policy QueuePolicy
		dead   string // benchMasks' population ("wires", "switches"); "" is healthy
		arb    string // cliutil.ArbiterFactory's name
		only   string // the one geometry the case runs on; "" is both
	}{
		{"depth1-drop", 1, QueueDrop, "", "priority", ""},                              // the core-equivalent corner
		{"depth4-backpressure", 4, QueueBackpressure, "", "priority", ""},              // the store-and-forward default
		{"depth4-drop-faulted", 4, QueueDrop, "wires", "priority", ""},                 // degraded mode: 5% dead wires
		{"depth0-backpressure", 0, QueueBackpressure, "", "priority", ""},              // the unbuffered wave sweep
		{"depth0-backpressure-faulted", 0, QueueBackpressure, "wires", "priority", ""}, // its parking test: 5% dead wires
		{"depth0-backpressure-deadbuckets", 0, QueueBackpressure, "switches", "priority", ""},
		{"depth4-backpressure-roundrobin", 4, QueueBackpressure, "", "roundrobin", "1Kports"},
		{"depth4-backpressure-random", 4, QueueBackpressure, "", "random", "1Kports"},
	}
	for _, g := range geometries {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		for _, qc := range configs {
			if qc.only != "" && qc.only != g.name {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", g.name, qc.name), func(b *testing.B) {
				factory, err := cliutil.ArbiterFactory(qc.arb, 1)
				if err != nil {
					b.Fatal(err)
				}
				qopts := QueueOptions{Depth: qc.depth, Policy: qc.policy, Factory: factory}
				if qc.dead != "" {
					mode, err := ParseFaultMode(qc.dead)
					if err != nil {
						b.Fatal(err)
					}
					qopts.Faults = benchMasks(b, cfg, mode)
				}
				// Dead switches leave buckets without a live wire, so
				// their case must run the depth-0 parking walk.
				benchmarkQueueCycle(b, cfg, qopts, qc.dead == "switches")
			})
		}
	}
}

// benchMasks compiles the shared degraded-mode fixture: 5% of mode's
// population dead, so the masked kernels — which must also stay at
// 0 allocs/op — sit under the same CI gate as the healthy ones.
func benchMasks(b *testing.B, cfg Config, mode FaultMode) *FaultMasks {
	b.Helper()
	m, err := CompileFaults(cfg, BernoulliFaults(cfg, mode, 0.05, NewRand(13)))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchmarkQueueCycle times one cycle of a queue network under uniform
// load 0.9 after 50 warmup cycles; mustPark fails the setup unless a
// packet parked on a dead component during the warmup.
func benchmarkQueueCycle(b *testing.B, cfg Config, qopts QueueOptions, mustPark bool) {
	net, err := NewQueueNetwork(cfg, qopts)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	gen := Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, cfg.Inputs())
	// Reach steady state (queues filled to their operating point) before
	// the measured window.
	var parked int64
	for i := 0; i < 50; i++ {
		gen.GenerateInto(dest, cfg.Outputs())
		cs, err := net.Cycle(dest)
		if err != nil {
			b.Fatal(err)
		}
		parked += int64(cs.ParkedOnDead)
	}
	if mustPark && parked == 0 {
		b.Fatal("no packet parked on a dead component during warmup")
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
