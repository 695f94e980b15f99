package simulate

import (
	"reflect"
	"testing"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func testAnatomyOptions() *anatomy.Options {
	return &anatomy.Options{TopK: 4}
}

// TestAnatomySweepShardInvariant pins the anatomy analogue of the probe
// contract: the collector rides shard 0 through the full cycle budget,
// and neither shard 0's seed nor that budget depends on the shard
// split, so the same Options yield the identical report whether the
// measured sweep ran on 1 shard or 3 — and an explained sweep never
// moves a measured number.
func TestAnatomySweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	qopts := queuesim.Options{Depth: 4}
	run := func(shards int, ao *anatomy.Options) (LatencyResult, *anatomy.Report) {
		var rep *anatomy.Report
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Anatomy: ao,
			OnAnatomy: func(r *anatomy.Report) { rep = r }}
		res, err := SaturationSweep(EDN{Config: cfg, Queue: qopts}, []float64{0.8}, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0], rep
	}

	plain1, _ := run(1, nil)
	explained1, rep1 := run(1, testAnatomyOptions())
	_, rep3 := run(3, testAnatomyOptions())

	if !reflect.DeepEqual(plain1, explained1) {
		t.Fatalf("explained sweep changed measured results:\n%+v\nvs\n%+v", plain1, explained1)
	}
	if rep1 == nil || rep3 == nil {
		t.Fatalf("missing anatomy reports: %v vs %v", rep1, rep3)
	}
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatalf("anatomy reports diverged across shard counts:\n%+v\nvs\n%+v", rep1, rep3)
	}
	if rep1.Delivered.Count == 0 {
		t.Fatalf("empty report: %+v", rep1)
	}
}

func TestAnatomyDilatedSweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dopts := dilatedsim.Options{Depth: 4}
	run := func(shards int, ao *anatomy.Options) (LatencyResult, *anatomy.Report) {
		var rep *anatomy.Report
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Anatomy: ao,
			OnAnatomy: func(r *anatomy.Report) { rep = r }}
		res, err := SaturationSweep(Dilated{Config: dcfg, Queue: dopts}, []float64{0.8}, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0], rep
	}

	plain1, _ := run(1, nil)
	explained1, rep1 := run(1, testAnatomyOptions())
	_, rep3 := run(3, testAnatomyOptions())

	if !reflect.DeepEqual(plain1, explained1) {
		t.Fatalf("explained dilated sweep changed measured results")
	}
	if rep1 == nil || rep3 == nil || !reflect.DeepEqual(rep1, rep3) {
		t.Fatalf("dilated anatomy reports diverged across shard counts:\n%+v\nvs\n%+v", rep1, rep3)
	}
}

func TestAnatomyClosedLoopShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo := closedloop.Options{
		Window: 4, Timeout: 16, MaxAttempts: 4,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 8,
	}
	qopts := queuesim.Options{Depth: 1, Policy: queuesim.Drop}
	run := func(shards int, ao *anatomy.Options) (ClosedLoopResult, *anatomy.Report) {
		var rep *anatomy.Report
		opts := Options{Cycles: 1000, Warmup: 100, Seed: 9, Anatomy: ao,
			OnAnatomy: func(r *anatomy.Report) { rep = r }}
		res, err := MeasureClosedLoop(EDN{Config: cfg, Queue: qopts}, []float64{0.4}, lo, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0], rep
	}

	plain1, _ := run(1, nil)
	explained1, rep1 := run(1, testAnatomyOptions())
	_, rep3 := run(3, testAnatomyOptions())

	if !reflect.DeepEqual(plain1, explained1) {
		t.Fatalf("explained closed-loop sweep changed measured results:\n%+v\nvs\n%+v", plain1, explained1)
	}
	if rep1 == nil || rep3 == nil || !reflect.DeepEqual(rep1, rep3) {
		t.Fatalf("closed-loop anatomy reports diverged across shard counts:\n%+v\nvs\n%+v", rep1, rep3)
	}
	if rep1.Requests == nil || rep1.Requests.Completed == 0 {
		t.Fatalf("empty request split: %+v", rep1)
	}
}
