package edn

import (
	"fmt"
	"testing"
)

// BenchmarkClosedLoopCycle tracks the closed-loop steady-state advance —
// demand arrivals, the timeouts popped from the deadline list, forward
// issue over the sources with work, both fabric cycles and reply
// matching — over each packet engine. In-flight request records live in
// a fixed pooled slot array threaded with intrusive lists, the event
// bitmaps and the retry wheel are sized at construction and the
// per-source backlogs are one preallocated FIFO store, so like every
// steady-state loop in the repository it must report exactly 0
// allocs/op under -benchmem; the CI zero-alloc gate enforces that.
func BenchmarkClosedLoopCycle(b *testing.B) {
	geometries := []struct {
		name        string
		a, bb, c, l int
	}{
		{"1Kports", 64, 16, 4, 2}, // EDN(64,16,4,2): the MasPar router, square
		{"4Kports", 16, 4, 4, 5},  // EDN(16,4,4,5), square
	}
	lo := ClosedLoopOptions{
		Window: 4, Rate: 0.4, Timeout: 32, MaxAttempts: 8,
		Retry: RetryBackoff, BackoffBase: 2, BackoffCap: 16,
	}
	for _, g := range geometries {
		cfg, err := New(g.a, g.bb, g.c, g.l)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/queue", g.name), func(b *testing.B) {
			fwd, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueDrop})
			if err != nil {
				b.Fatal(err)
			}
			rev, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueDrop})
			if err != nil {
				b.Fatal(err)
			}
			benchmarkClosedLoopCycle(b, fwd, rev, cfg.Inputs(), cfg.Outputs(), 2*cfg.WireCount(), lo)
		})
		dcfg, err := DilatedCounterpart(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/dilated", g.name), func(b *testing.B) {
			fwd, err := NewDilatedQueueNetwork(dcfg, DilatedQueueOptions{Depth: 4, Policy: QueueDrop})
			if err != nil {
				b.Fatal(err)
			}
			rev, err := NewDilatedQueueNetwork(dcfg, DilatedQueueOptions{Depth: 4, Policy: QueueDrop})
			if err != nil {
				b.Fatal(err)
			}
			benchmarkClosedLoopCycle(b, fwd, rev, dcfg.Ports(), dcfg.Ports(), 2*dcfg.WireCount(), lo)
		})
	}
}

// wires counts both fabrics' wires, the unit of the ns/wsc metric.
func benchmarkClosedLoopCycle(b *testing.B, fwd, rev ClosedLoopEngine, inputs, outputs int, wires int64, lo ClosedLoopOptions) {
	loop, err := NewClosedLoop(fwd, rev, inputs, outputs, lo)
	if err != nil {
		b.Fatal(err)
	}
	// Fill the windows and backlogs to steady state before measuring,
	// as BenchmarkQueueCycle does.
	for i := 0; i < 100; i++ {
		if _, err := loop.Cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := loop.CheckConservation(); err != nil {
		b.Fatal(err)
	}
	led := loop.Ledger()
	b.ReportMetric(float64(led.Completed)/float64(loop.Now()), "completed/cycle")
	reportPerWire(b, wires)
}
