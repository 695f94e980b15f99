package simulate

import (
	"testing"

	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func testLoopOptions() closedloop.Options {
	return closedloop.Options{
		Window: 3, Timeout: 24, MaxAttempts: 4,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 16,
		MaxBacklog: 16, SLA: closedloop.SLA{Deadline: 32},
	}
}

// An EDN sweep and its counterpart's under the same Options must see
// bit-equal offered demand (the shard seeds derive from the Options,
// not the network) and sane headline numbers at every rate point.
func TestMeasureClosedLoopPair(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2) // 8x8 square
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.2, 0.6}
	opts := Options{Cycles: 600, Warmup: 100, Seed: 7}
	ednRes, err := MeasureClosedLoop(EDN{Config: cfg, Queue: queuesim.Options{Depth: 2}}, rates, testLoopOptions(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	dilRes, err := MeasureClosedLoop(Dilated{Config: dcfg, Queue: dilatedsim.Options{Depth: 2}}, rates, testLoopOptions(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ednRes) != len(rates) || len(dilRes) != len(rates) {
		t.Fatalf("got %d/%d results, want %d", len(ednRes), len(dilRes), len(rates))
	}
	for i := range ednRes {
		e, d := ednRes[i], dilRes[i]
		if e.Ledger.Offered != d.Ledger.Offered {
			t.Errorf("rate %.1f: offered %d vs %d", e.Rate, e.Ledger.Offered, d.Ledger.Offered)
		}
		for _, r := range []ClosedLoopResult{e, d} {
			if r.Goodput <= 0 {
				t.Errorf("%s rate %.1f: goodput %g, want > 0", r.Network(), r.Rate, r.Goodput)
			}
			if r.CompletedFraction <= 0 || r.CompletedFraction > 1 {
				t.Errorf("%s rate %.1f: completed fraction %g outside (0,1]", r.Network(), r.Rate, r.CompletedFraction)
			}
			if r.SLAAttainment < 0 || r.SLAAttainment > 1 {
				t.Errorf("%s rate %.1f: SLA attainment %g outside [0,1]", r.Network(), r.Rate, r.SLAAttainment)
			}
			if r.LatencyMean < float64(2*cfg.Stages()) {
				t.Errorf("%s rate %.1f: mean latency %g below the 2l pipeline floor", r.Network(), r.Rate, r.LatencyMean)
			}
		}
	}
	// Demand is seed-derived, so offered rates must climb with rate.
	if ednRes[0].Ledger.Offered >= ednRes[1].Ledger.Offered {
		t.Errorf("offered did not grow with rate: %d then %d",
			ednRes[0].Ledger.Offered, ednRes[1].Ledger.Offered)
	}
}

// Fixed (seed, shards) must reproduce the measurement bit-for-bit.
func TestMeasureClosedLoopDeterminism(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ClosedLoopResult {
		res, err := MeasureClosedLoop(EDN{Config: cfg, Queue: queuesim.Options{}}, []float64{0.5}, testLoopOptions(), Options{Cycles: 400, Warmup: 50, Seed: 11}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	a, b := run(), run()
	if a.Ledger != b.Ledger {
		t.Fatalf("ledgers diverge:\n%+v\n%+v", a.Ledger, b.Ledger)
	}
	if a.Histogram.N() != b.Histogram.N() || a.Histogram.Sum() != b.Histogram.Sum() {
		t.Fatal("latency histograms diverge across identical runs")
	}
}

func TestClosedLoopLifetimeSweep(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lopts := LifetimeOptions{
		Epochs:      8,
		EpochCycles: 60,
		Load:        0.4,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 40, MTTR: 10},
	}
	res, err := ClosedLoopLifetimeSweep(EDN{Config: cfg, Queue: queuesim.Options{Depth: 2}}, lopts, testLoopOptions(), Options{Warmup: 80, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput.Len() != lopts.Epochs || res.Reachable.Len() != lopts.Epochs {
		t.Fatalf("series length %d, want %d epochs", res.Goodput.Len(), lopts.Epochs)
	}
	if res.Ledger.Offered <= 0 || res.Ledger.Completed <= 0 {
		t.Fatalf("empty lifetime ledger: %+v", res.Ledger)
	}
	if res.GoodputOverall <= 0 {
		t.Errorf("goodput overall %g, want > 0", res.GoodputOverall)
	}
	if res.SLAAttainmentOverall <= 0 || res.SLAAttainmentOverall > 1 {
		t.Errorf("SLA attainment %g outside (0,1]", res.SLAAttainmentOverall)
	}
	if res.CostOfDowntime < 0 || res.CostOfDowntime >= 1 {
		t.Errorf("cost of downtime %g outside [0,1)", res.CostOfDowntime)
	}
	// MTBF 40 / MTTR 10 keeps ~20% of wires down, so the churn process
	// must actually have been exercised. (Reachability may well stay at
	// 1 — surviving wire faults through path redundancy is the whole
	// point of the topology — so churn is detected on the dead-wire
	// series, not the reachable one.)
	churned := false
	for e := 0; e < lopts.Epochs; e++ {
		if res.DeadFraction.Mean(e) > 0 {
			churned = true
		}
		if res.Reachable.Mean(e) < 0 || res.Reachable.Mean(e) > 1 {
			t.Errorf("epoch %d: reachable fraction %g outside [0,1]", e, res.Reachable.Mean(e))
		}
	}
	if !churned {
		t.Error("no epoch saw any dead wires under MTBF 40 / MTTR 10")
	}
	if res.Ledger.Timeouts == 0 && res.Ledger.Avoided == 0 {
		t.Error("churned lifetime saw neither timeouts nor avoided draws")
	}
	if res.String() == "" || res.Network() != cfg.String() {
		t.Errorf("Network() = %q, want %q", res.Network(), cfg.String())
	}
}

func TestDilatedClosedLoopLifetimeSweep(t *testing.T) {
	dcfg, err := dilated.New(2, 2, 3) // 8 ports, 2-dilated
	if err != nil {
		t.Fatal(err)
	}
	lopts := LifetimeOptions{
		Epochs:      6,
		EpochCycles: 60,
		Load:        0.4,
		Spec:        lifecycle.Spec{MTBF: 40, MTTR: 10},
	}
	res, err := ClosedLoopLifetimeSweep(Dilated{Config: dcfg, Queue: dilatedsim.Options{Depth: 2}}, lopts, testLoopOptions(), Options{Warmup: 80, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Offered <= 0 || res.Ledger.Completed <= 0 {
		t.Fatalf("empty lifetime ledger: %+v", res.Ledger)
	}
	if res.GoodputOverall <= 0 {
		t.Errorf("goodput overall %g, want > 0", res.GoodputOverall)
	}
	if res.Network() != dcfg.String() {
		t.Errorf("Network() = %q, want %q", res.Network(), dcfg.String())
	}
}

func TestClosedLoopValidation(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClosedLoopLifetimeSweep(EDN{Config: cfg, Queue: queuesim.Options{}}, LifetimeOptions{Epochs: 0},
		testLoopOptions(), Options{}, 1); err == nil {
		t.Error("zero epochs should be rejected")
	}
	if _, err := ClosedLoopLifetimeSweep(EDN{Config: cfg, Queue: queuesim.Options{}},
		LifetimeOptions{Epochs: 2, Load: 1.5, Spec: lifecycle.Spec{MTBF: 40, MTTR: 10}},
		testLoopOptions(), Options{}, 1); err == nil {
		t.Error("demand rate above 1 should be rejected")
	}
}
