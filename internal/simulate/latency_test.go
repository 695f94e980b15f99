package simulate

import (
	"math"
	"testing"

	"edn/internal/analytic"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func latencyCfg(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestMeasureLatencyLowLoad(t *testing.T) {
	// At very light load queueing is negligible: the mean latency must
	// sit essentially on the pipeline floor of Stages() cycles.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	rng := xrand.New(2)
	res, err := MeasureLatency(EDN{Config: cfg, Queue: queuesim.Options{Depth: 4}}, traffic.Uniform{Rate: 0.02, Rng: rng}, Options{Cycles: 2000, Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	floor := float64(cfg.Stages())
	if res.LatencyMean < floor || res.LatencyMean > floor+0.5 {
		t.Errorf("light-load mean latency %.3f, want within [%g, %g]", res.LatencyMean, floor, floor+0.5)
	}
	if res.LatencyP99 > floor+3 {
		t.Errorf("light-load P99 %.1f far above floor %g", res.LatencyP99, floor)
	}
	if res.Dropped != 0 {
		t.Errorf("backpressure run dropped %d packets", res.Dropped)
	}
	wantThr := 0.02 * float64(cfg.Inputs())
	if math.Abs(res.Throughput-wantThr) > 0.3*wantThr {
		t.Errorf("light-load throughput %.2f, want about %.2f", res.Throughput, wantThr)
	}
}

func TestMeasureLatencyRisesWithLoad(t *testing.T) {
	// The whole point of the subsystem: latency must grow with offered
	// load, and the saturated throughput must stay below the offered
	// rate.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	var prev float64
	for i, load := range []float64{0.2, 0.6, 1.0} {
		rng := xrand.New(4)
		res, err := MeasureLatency(EDN{Config: cfg, Queue: queuesim.Options{Depth: 8}}, traffic.Uniform{Rate: load, Rng: rng}, Options{Cycles: 1500, Warmup: 300})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.LatencyMean < prev {
			t.Errorf("mean latency fell from %.2f to %.2f as load rose to %.1f", prev, res.LatencyMean, load)
		}
		prev = res.LatencyMean
		if load == 1.0 && res.Refused == 0 {
			t.Error("full load against bounded buffers should refuse injections")
		}
	}
}

func TestMeasureLatencyLittlesLaw(t *testing.T) {
	// At steady state, mean in-flight population ~= throughput * mean
	// latency (Little's law), which ties the occupancy sampling and the
	// latency histogram together through independent counters.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	rng := xrand.New(6)
	res, err := MeasureLatency(EDN{Config: cfg, Queue: queuesim.Options{Depth: 16}}, traffic.Uniform{Rate: 0.4, Rng: rng}, Options{Cycles: 4000, Warmup: 500})
	if err != nil {
		t.Fatal(err)
	}
	populationLaw := res.Throughput * res.LatencyMean
	if math.Abs(populationLaw-res.AvgQueued) > 0.15*res.AvgQueued {
		t.Errorf("Little's law violated: thr*lat = %.2f vs avg queued %.2f", populationLaw, res.AvgQueued)
	}
}

func TestSaturationSweepShapes(t *testing.T) {
	cfg := latencyCfg(t, 16, 4, 4, 2)
	loads := []float64{0.2, 0.5, 0.9}
	results, err := SaturationSweep(EDN{Config: cfg, Queue: queuesim.Options{Depth: 8}}, loads, nil, Options{Cycles: 800, Warmup: 200, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(loads) {
		t.Fatalf("got %d results for %d loads", len(results), len(loads))
	}
	for i, r := range results {
		if r.Cycles != 800 {
			t.Errorf("load %g: merged cycles %d, want 800", loads[i], r.Cycles)
		}
		if r.Shards != 4 {
			t.Errorf("load %g: shards %d, want 4", loads[i], r.Shards)
		}
		if math.Abs(r.OfferedRate-loads[i]) > 0.1*loads[i]+0.02 {
			t.Errorf("load %g: measured offered rate %.3f", loads[i], r.OfferedRate)
		}
		if r.Histogram.N() != r.Delivered {
			t.Errorf("load %g: histogram holds %d samples, delivered %d", loads[i], r.Histogram.N(), r.Delivered)
		}
	}
	if results[2].LatencyMean <= results[0].LatencyMean {
		t.Errorf("latency should rise across the sweep: %.2f !> %.2f",
			results[2].LatencyMean, results[0].LatencyMean)
	}
}

func TestSaturationSweepDeterministic(t *testing.T) {
	cfg := latencyCfg(t, 8, 2, 4, 2)
	run := func() []LatencyResult {
		res, err := SaturationSweep(EDN{Config: cfg, Queue: queuesim.Options{Depth: 4}}, []float64{0.5, 1}, nil, Options{Cycles: 400, Warmup: 50, Seed: 9}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Delivered != b[i].Delivered || a[i].Injected != b[i].Injected ||
			a[i].LatencyP99 != b[i].LatencyP99 || a[i].LatencyMean != b[i].LatencyMean {
			t.Errorf("load %d: sweep not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSaturationSweepBurstyHurts(t *testing.T) {
	// At equal mean load, bursty arrivals must queue worse than iid
	// uniform — the reason temporally correlated sources exist.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	qopts := queuesim.Options{Depth: 32}
	opts := Options{Cycles: 3000, Warmup: 500, Seed: 5}
	uniform, err := SaturationSweep(EDN{Config: cfg, Queue: qopts}, []float64{0.5}, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := SaturationSweep(EDN{Config: cfg, Queue: qopts}, []float64{0.5}, BurstyLoad(24), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bursty[0].LatencyP95 <= uniform[0].LatencyP95 {
		t.Errorf("bursty P95 %.1f should exceed uniform P95 %.1f at equal mean load",
			bursty[0].LatencyP95, uniform[0].LatencyP95)
	}
}

func TestBurstyLoadHoldsLoadAxisNearSaturation(t *testing.T) {
	// For load > meanBurst/(meanBurst+1) the solved ON-transition
	// probability exceeds 1; BurstyLoad must renormalize (longer bursts)
	// rather than silently cap the offered load below the axis value.
	const inputs, outputs, cycles = 256, 256, 4000
	dest := make([]int, inputs)
	for _, load := range []float64{0.9, 0.97} {
		pattern := BurstyLoad(16)(load, xrand.New(23))
		requests := 0
		for cycle := 0; cycle < cycles; cycle++ {
			pattern.GenerateInto(dest, outputs)
			for _, d := range dest {
				if d != traffic.None {
					requests++
				}
			}
		}
		got := float64(requests) / float64(inputs*cycles)
		if math.Abs(got-load) > 0.02 {
			t.Errorf("BurstyLoad(16) at load %.2f offered %.4f, want %.2f +-0.02", load, got, load)
		}
	}
}

func TestDrainPermutationsMatchesSection51Model(t *testing.T) {
	// The cross-check of the issue: the unbuffered resubmission corner
	// (depth 0 + backpressure) drains q permutations per input in the
	// regime ExpectedPermutationTime models, q/PA(1) + J. The paper's
	// own comparison (Section 5.1; see also BenchmarkSection5Simulation,
	// model 33.4 vs measured 44 cycles for the MasPar geometry) shows
	// the closed form underestimates the measured time by up to ~35%,
	// because real blocked messages retry the same destination while the
	// model assumes fresh uniform re-addressing. We therefore assert the
	// measured mean over several seeds lands in [model, 1.5*model]
	// widened by the seeds' own confidence interval.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	const q = 8
	model, err := analytic.ExpectedPermutationTime(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		sum, sumsq float64
		n          int
	}
	for seed := uint64(1); seed <= 6; seed++ {
		res, err := DrainPermutations(EDN{Config: cfg, Queue: queuesim.Options{Depth: 0}}, q,
			Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		x := float64(res.Cycles)
		acc.sum += x
		acc.sumsq += x * x
		acc.n++
		if res.Histogram.N() != int64(q*cfg.Inputs()) {
			t.Fatalf("seed %d: delivered %d packets, want %d", seed, res.Histogram.N(), q*cfg.Inputs())
		}
	}
	mean := acc.sum / float64(acc.n)
	variance := (acc.sumsq - acc.sum*acc.sum/float64(acc.n)) / float64(acc.n-1)
	ci95 := 1.96 * math.Sqrt(variance/float64(acc.n))
	lo, hi := model.Cycles()-ci95, 1.5*model.Cycles()+ci95
	if mean < lo || mean > hi {
		t.Errorf("drain mean %.1f cycles outside [%.1f, %.1f] around model %.1f (PA(1)=%.3f, J=%d)",
			mean, lo, hi, model.Cycles(), model.PA1, model.J)
	}
}

func TestDrainPermutationsBufferingHelps(t *testing.T) {
	// The headline question of the subsystem, asked within one time
	// model: among pipelined networks (one hop per cycle), deeper
	// interstage buffers must not lengthen the drain — queues absorb the
	// collisions that otherwise stall heads of line. The unbuffered
	// depth-0 corner lives in the paper's single-cycle-transit
	// abstraction and is compared against its own closed form in
	// TestDrainPermutationsMatchesSection51Model instead.
	cfg := latencyCfg(t, 16, 4, 4, 2)
	const q = 8
	drain := func(depth int) int64 {
		res, err := DrainPermutations(EDN{Config: cfg, Queue: queuesim.Options{Depth: depth}}, q,
			Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	shallow := drain(1)
	mid := drain(4)
	deep := drain(queuesim.Unbounded)
	if mid > shallow || deep > mid {
		t.Errorf("drain should shorten (or hold) with depth: depth1=%d depth4=%d unbounded=%d",
			shallow, mid, deep)
	}
	// Physical floor: the last of q waves cannot retire before the
	// pipeline has filled and every earlier wave has left its input.
	if floor := int64(q - 1 + cfg.Stages()); deep < floor {
		t.Errorf("unbounded drain %d cycles below the physical floor %d", deep, floor)
	}
}

func TestDrainPermutationsValidation(t *testing.T) {
	rect := latencyCfg(t, 4, 4, 2, 2)
	if _, err := DrainPermutations(EDN{Config: rect, Queue: queuesim.Options{}}, 4, Options{}); err == nil {
		t.Error("rectangular network should be rejected")
	}
	sq := latencyCfg(t, 8, 2, 4, 2)
	if _, err := DrainPermutations(EDN{Config: sq, Queue: queuesim.Options{}}, 0, Options{}); err == nil {
		t.Error("q=0 should be rejected")
	}
	if _, err := DrainPermutations(EDN{Config: sq, Queue: queuesim.Options{Policy: queuesim.Drop}}, 4, Options{}); err == nil {
		t.Error("drop policy should be rejected for a drain")
	}
}

func TestMeasureLatencyDepth1DropBandwidthMatchesMeasurePA(t *testing.T) {
	// End-to-end version of the engine-equivalence property at the
	// harness level: a depth-1 Drop latency run and a MeasurePA run over
	// the identical traffic stream must report identical bandwidth once
	// the measurement windows are aligned (no warmup, and the latency
	// run extended by the pipeline fill).
	cfg := latencyCfg(t, 16, 4, 4, 2)
	const cycles = 300
	unbuffered, err := MeasurePA(cfg, traffic.Uniform{Rate: 1, Rng: xrand.New(17)}, Options{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	// Feed the same stream, padded with idle cycles to drain the
	// pipeline, through the queueing engine.
	net, err := queuesim.New(cfg, queuesim.Options{Depth: 1, Policy: queuesim.Drop})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	gen := traffic.Uniform{Rate: 1, Rng: rng}
	dest := make([]int, cfg.Inputs())
	for c := 0; c < cycles; c++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Drain(10 * cfg.Stages()); err != nil {
		t.Fatal(err)
	}
	gotBW := float64(net.Totals().Delivered) / float64(cycles)
	if gotBW != unbuffered.Bandwidth {
		t.Errorf("depth-1 drop bandwidth %.4f != unbuffered engine %.4f", gotBW, unbuffered.Bandwidth)
	}
}
