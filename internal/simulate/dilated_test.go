package simulate

import (
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func headlinePair(t *testing.T) (topology.Config, dilated.Config) {
	t.Helper()
	cfg, err := topology.New(4, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dcfg.Ports() != cfg.Inputs() {
		t.Fatalf("counterpart %v has %d ports for %d EDN inputs", dcfg, dcfg.Ports(), cfg.Inputs())
	}
	return cfg, dcfg
}

// TestDilatedSaturationSweepPairsWithEDN is the "same replayed traffic"
// contract: with the same Options and shard count, the EDN sweep and
// the counterpart sweep see the bit-identical per-input injection
// realization at every load point (the sources draw the inject coin
// before the destination, so differing output counts don't desynchronize
// the streams) — the offered packet counts must match exactly.
func TestDilatedSaturationSweepPairsWithEDN(t *testing.T) {
	cfg, dcfg := headlinePair(t)
	loads := []float64{0.3, 0.7, 1}
	opts := Options{Cycles: 400, Warmup: 100, Seed: 5}
	qopts := queuesim.Options{Depth: 4, Policy: queuesim.Drop}
	dopts := dilatedsim.Options{Depth: 4, Policy: dilatedsim.Drop}
	const shards = 3
	eres, err := SaturationSweep(EDN{Config: cfg, Queue: qopts}, loads, nil, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := SaturationSweep(Dilated{Config: dcfg, Queue: dopts}, loads, nil, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(eres) != len(dres) {
		t.Fatalf("%d EDN points vs %d dilated", len(eres), len(dres))
	}
	for i := range eres {
		if eres[i].Injected != dres[i].Injected {
			t.Errorf("load %g: EDN injected %d, dilated %d — traffic replays diverged",
				loads[i], eres[i].Injected, dres[i].Injected)
		}
		if dres[i].Dilated != dcfg {
			t.Errorf("point %d carries config %v", i, dres[i].Dilated)
		}
	}
}

// TestDilatedSaturationSweepDeterministic: same (seed, shards) pair,
// same curve, bit for bit.
func TestDilatedSaturationSweepDeterministic(t *testing.T) {
	_, dcfg := headlinePair(t)
	loads := []float64{0.5, 1}
	opts := Options{Cycles: 300, Warmup: 50, Seed: 11}
	dopts := dilatedsim.Options{Depth: 2, Policy: dilatedsim.Backpressure}
	a, err := SaturationSweep(Dilated{Config: dcfg, Queue: dopts}, loads, nil, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SaturationSweep(Dilated{Config: dcfg, Queue: dopts}, loads, nil, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Delivered != b[i].Delivered || a[i].LatencyP99 != b[i].LatencyP99 || a[i].Injected != b[i].Injected {
			t.Fatalf("point %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDilatedAvailabilitySweep covers the degraded axis: fraction 0
// equals the fault-free measurement, the delivered curve is monotone
// non-increasing (nested plans under replayed traffic), reachability
// falls with the fraction, and WithExpected populates the per-wire
// model near the measurement at the healthy end.
func TestDilatedAvailabilitySweep(t *testing.T) {
	_, dcfg := headlinePair(t)
	aopts := AvailabilityOptions{
		Fractions:    []float64{0, 0.1, 0.3, 0.6},
		Load:         1,
		WithExpected: true,
	}
	dopts := dilatedsim.Options{Depth: 4, Policy: dilatedsim.Drop}
	opts := Options{Cycles: 600, Warmup: 150, Seed: 3}
	res, err := AvailabilitySweep(Dilated{Config: dcfg, Queue: dopts}, aopts, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(aopts.Fractions) {
		t.Fatalf("%d points for %d fractions", len(res), len(aopts.Fractions))
	}
	if res[0].DeadWires != 0 || res[0].ReachableFraction != 1 {
		t.Fatalf("fraction 0 is not fault-free: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Throughput > res[i-1].Throughput*1.02 {
			t.Errorf("throughput not monotone: f=%g %.3f > f=%g %.3f",
				res[i].FaultFraction, res[i].Throughput, res[i-1].FaultFraction, res[i-1].Throughput)
		}
		if res[i].ReachableFraction > res[i-1].ReachableFraction {
			t.Errorf("reachability rose with the fault fraction at %g", res[i].FaultFraction)
		}
		if res[i].ExpectedThroughput <= 0 {
			t.Errorf("WithExpected left point %d empty", i)
		}
	}
	// At the healthy end the per-wire model and the measurement
	// describe the same network.
	if rel := math.Abs(res[0].Throughput-res[0].ExpectedThroughput) / res[0].ExpectedThroughput; rel > 0.15 {
		t.Errorf("healthy measurement %.2f vs per-wire model %.2f (%.0f%% apart)",
			res[0].Throughput, res[0].ExpectedThroughput, 100*rel)
	}
}

// TestDilatedLifetimeSweep covers the churn axis: deterministic per
// (seed, shards), conservation of the lifetime ledger, a dead fraction
// that drifts toward MTTR/(MTBF+MTTR), and series lengths.
func TestDilatedLifetimeSweep(t *testing.T) {
	_, dcfg := headlinePair(t)
	lopts := LifetimeOptions{
		Epochs:      30,
		EpochCycles: 60,
		Load:        1,
		Spec:        lifecycle.Spec{MTBF: 16, MTTR: 4, Timing: lifecycle.Exponential},
	}
	dopts := dilatedsim.Options{Depth: 4, Policy: dilatedsim.Drop}
	opts := Options{Warmup: 80, Seed: 9}
	a, err := LifetimeSweep(Dilated{Config: dcfg, Queue: dopts}, lopts, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LifetimeSweep(Dilated{Config: dcfg, Queue: dopts}, lopts, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.LifetimeBandwidth != b.LifetimeBandwidth || a.Delivered != b.Delivered {
		t.Fatalf("not deterministic: %.6f/%d vs %.6f/%d",
			a.LifetimeBandwidth, a.Delivered, b.LifetimeBandwidth, b.Delivered)
	}
	if a.Bandwidth.Len() != lopts.Epochs || a.DeadFraction.Len() != lopts.Epochs {
		t.Fatalf("series length %d, want %d", a.Bandwidth.Len(), lopts.Epochs)
	}
	if a.LifetimeBandwidth <= 0 || a.LifetimeBandwidth > 1 {
		t.Fatalf("lifetime bandwidth %.3f out of (0,1]", a.LifetimeBandwidth)
	}
	want := lopts.Spec.MTTR / (lopts.Spec.MTBF + lopts.Spec.MTTR)
	tail := 0.0
	for e := lopts.Epochs / 2; e < lopts.Epochs; e++ {
		tail += a.DeadFraction.Mean(e)
	}
	tail /= float64(lopts.Epochs - lopts.Epochs/2)
	if tail < want*0.5 || tail > want*1.5 {
		t.Errorf("late-lifetime dead fraction %.3f, want near %.3f", tail, want)
	}
	if a.Epochs != lopts.Epochs || a.Shards != 2 || a.Dilated != dcfg {
		t.Errorf("result metadata wrong: %+v", a)
	}
}

// TestDilatedLifetimePairsWithEDN: the EDN and counterpart lifetime
// sweeps with the same Options see identical per-input injection
// replays — offered totals match exactly when epochs, cycles and load
// agree.
func TestDilatedLifetimePairsWithEDN(t *testing.T) {
	cfg, dcfg := headlinePair(t)
	lopts := LifetimeOptions{
		Epochs:      10,
		EpochCycles: 50,
		Load:        1,
		Spec:        lifecycle.Spec{MTBF: 16, MTTR: 4, Timing: lifecycle.Exponential},
	}
	opts := Options{Warmup: 40, Seed: 21}
	qopts := queuesim.Options{Depth: 4, Policy: queuesim.Drop}
	dopts := dilatedsim.Options{Depth: 4, Policy: dilatedsim.Drop}
	eres, err := LifetimeSweep(EDN{Config: cfg, Queue: qopts}, lopts, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := LifetimeSweep(Dilated{Config: dcfg, Queue: dopts}, lopts, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eres.Injected != dres.Injected {
		t.Errorf("EDN injected %d, dilated %d — lifetime replays diverged", eres.Injected, dres.Injected)
	}
}
