package simulate

import (
	"testing"

	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func availCfg(t *testing.T, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestAvailabilitySweepValidation(t *testing.T) {
	cfg := availCfg(t, 4, 4, 2, 2)
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	if _, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, AvailabilityOptions{}, nil, Options{Cycles: 10}, 1); err == nil {
		t.Error("empty fraction axis accepted")
	}
	if _, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, AvailabilityOptions{Fractions: []float64{-0.1}}, nil, Options{Cycles: 10}, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	// The sweep compiles every mask over Queue.Tables, so a fabric of
	// another geometry must be refused before anything compiles over it.
	other, err := queuesim.EDNFabric(availCfg(t, 4, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	qopts.Tables = other
	if _, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, AvailabilityOptions{Fractions: []float64{0.1}}, nil, Options{Cycles: 10}, 1); err == nil {
		t.Error("tables of another geometry accepted")
	}
}

func TestAvailabilitySweepZeroFractionMatchesFaultFree(t *testing.T) {
	cfg := availCfg(t, 16, 4, 4, 2)
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	opts := Options{Cycles: 400, Warmup: 100, Seed: 5}
	res, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, AvailabilityOptions{Fractions: []float64{0}}, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	if r.DeadSwitches != 0 || r.DeadWires != 0 {
		t.Errorf("fraction 0 sampled faults: %+v", r)
	}
	if r.ReachableFraction != 1 || r.LiveInputFraction != 1 {
		t.Errorf("fraction 0 lost reachability: %+v", r)
	}
	if r.Throughput <= 0 {
		t.Errorf("no throughput at fraction 0: %+v", r)
	}
	if r.AcceptedFraction <= 0.5 {
		t.Errorf("fault-free EDN(16,4,4,2) at full load accepted only %.3f", r.AcceptedFraction)
	}
}

func TestAvailabilitySweepDeterministicAndMonotone(t *testing.T) {
	cfg := availCfg(t, 16, 4, 4, 2)
	aopts := AvailabilityOptions{
		Fractions:    []float64{0, 0.05, 0.15, 0.3, 0.5, 0.8},
		Mode:         faults.WireFaults,
		WithExpected: true,
	}
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	opts := Options{Cycles: 600, Warmup: 150, Seed: 9}
	res, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, aopts, nil, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, aopts, nil, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Throughput != res2[i].Throughput || res[i].LatencyP99 != res2[i].LatencyP99 {
			t.Errorf("fraction %g: sweep not deterministic for fixed seed/shards", res[i].FaultFraction)
		}
	}
	for i := 1; i < len(res); i++ {
		prev, cur := res[i-1], res[i]
		if cur.Throughput > prev.Throughput {
			t.Errorf("delivered bandwidth rose from %.3f to %.3f at fraction %g",
				prev.Throughput, cur.Throughput, cur.FaultFraction)
		}
		if cur.ReachableFraction > prev.ReachableFraction {
			t.Errorf("reachability rose from %.3f to %.3f at fraction %g (nested plans must only lose)",
				prev.ReachableFraction, cur.ReachableFraction, cur.FaultFraction)
		}
		if cur.DeadWires < prev.DeadWires {
			t.Errorf("dead wire census shrank from %g to %g at fraction %g",
				prev.DeadWires, cur.DeadWires, cur.FaultFraction)
		}
		if cur.ExpectedThroughput > prev.ExpectedThroughput+1e-9 {
			t.Errorf("analytic expectation rose from %.3f to %.3f at fraction %g",
				prev.ExpectedThroughput, cur.ExpectedThroughput, cur.FaultFraction)
		}
	}
	// The analytic recursion must track the measured bandwidth: depth-2
	// Drop is near the memoryless regime it models, so demand agreement
	// within 15% wherever a meaningful amount of traffic still flows.
	for _, r := range res {
		if r.Throughput < 1 || r.ExpectedThroughput < 1 {
			continue
		}
		if rel := r.Throughput/r.ExpectedThroughput - 1; rel > 0.25 || rel < -0.25 {
			t.Errorf("fraction %g: measured %.2f vs analytic %.2f diverge by %.0f%%",
				r.FaultFraction, r.Throughput, r.ExpectedThroughput, rel*100)
		}
	}
}

func TestAvailabilitySweepSwitchModeLosesInputs(t *testing.T) {
	cfg := availCfg(t, 16, 4, 4, 2)
	aopts := AvailabilityOptions{
		Fractions: []float64{0.3},
		Mode:      faults.SwitchFaults,
	}
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	res, err := AvailabilitySweep(EDN{Config: cfg, Queue: qopts}, aopts, nil, Options{Cycles: 200, Warmup: 50, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.DeadSwitches == 0 {
		t.Error("switch mode at 0.3 sampled no dead switches")
	}
	if r.LiveInputFraction >= 1 {
		t.Error("dead stage-1 switches did not reduce the live input fraction")
	}
	if r.ReachableFraction >= 1 {
		t.Error("dead crossbars did not reduce reachability")
	}
}
