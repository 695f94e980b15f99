package edn

import "testing"

// BenchmarkAnatomyOff pins the cost of detached anatomy: every packet
// engine hot path carries attribution hooks, and with no collector
// attached (the default) each hook must cost one predictable nil check
// — the steady-state loops stay at exactly 0 allocs/op under
// -benchmem, the same bar the probe hooks hold. The CI zero-alloc gate
// enforces this so attribution can never quietly tax a run that isn't
// explaining.
func BenchmarkAnatomyOff(b *testing.B) {
	cfg, err := New(64, 16, 4, 2) // EDN(64,16,4,2): the MasPar router
	if err != nil {
		b.Fatal(err)
	}
	b.Run("1Kports/queue", func(b *testing.B) {
		net, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueBackpressure})
		if err != nil {
			b.Fatal(err)
		}
		net.SetAnatomy(nil)
		benchmarkProbeOffPacket(b, func(dest []int) error {
			_, err := net.Cycle(dest)
			return err
		}, cfg.Inputs(), cfg.Outputs())
	})
	b.Run("1Kports/dilated", func(b *testing.B) {
		dcfg, err := DilatedCounterpart(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net, err := NewDilatedQueueNetwork(dcfg, DilatedQueueOptions{Depth: 4, Policy: QueueBackpressure})
		if err != nil {
			b.Fatal(err)
		}
		net.SetAnatomy(nil)
		benchmarkProbeOffPacket(b, func(dest []int) error {
			_, err := net.Cycle(dest)
			return err
		}, dcfg.Ports(), dcfg.Ports())
	})
	b.Run("1Kports/loop", func(b *testing.B) {
		mkFabric := func() ClosedLoopEngine {
			n, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueDrop})
			if err != nil {
				b.Fatal(err)
			}
			return n
		}
		lo := ClosedLoopOptions{
			Window: 4, Rate: 0.4, Timeout: 32, MaxAttempts: 8,
			Retry: RetryBackoff, BackoffBase: 2, BackoffCap: 16,
		}
		loop, err := NewClosedLoop(mkFabric(), mkFabric(), cfg.Inputs(), cfg.Outputs(), lo)
		if err != nil {
			b.Fatal(err)
		}
		loop.SetAnatomy(nil)
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
	})
}

// BenchmarkObserverOn pins the cost of attached observation: one cycle
// of explain-hotspot's instrumented shard — EDN(64,16,4,2) at depth-4
// backpressure under a moving hot spot at load 0.8, with a probe
// sampling one injection in 16 and an anatomy collector keeping the top
// 8 — once warm. Both instruments work per engine event, so the
// steady-state cycle must report exactly 0 allocs/op; the CI zero-alloc
// gate enforces this.
func BenchmarkObserverOn(b *testing.B) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueBackpressure})
	if err != nil {
		b.Fatal(err)
	}
	net.SetAnatomy(NewAnatomyCollector(AnatomyOptions{TopK: 8}))
	net.SetProbe(NewProbe(ProbeOptions{SampleEvery: 16, Seed: 3, BinCycles: 16}))
	gen := &MovingHotSpot{Rate: 0.8, Fraction: 0.2, Hot: 5, Period: 64, Stride: 3, Rng: NewRand(7)}
	dest := make([]int, cfg.Inputs())
	cycle := func() {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
