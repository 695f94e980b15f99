package edn

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// anatomyGrid is the mode × engine × traffic coverage the explain
// surface supports. Every spec here must produce a non-empty anatomy
// report without moving a single measured byte.
func anatomyGrid() []JobSpec {
	geo := &GeometrySpec{A: 16, B: 4, C: 4, L: 2}
	return []JobSpec{
		{Mode: JobLatency, Geometry: geo, Load: 0.9,
			Queue: &QueueSpec{Depth: 2}, Sim: SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobLatency, Engine: EngineDilated, Geometry: geo, Load: 0.9,
			Queue: &QueueSpec{Depth: 2}, Sim: SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobLatency, Geometry: geo, Load: 0.9,
			Queue:  &QueueSpec{Depth: 0},
			Sim:    SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2},
			Faults: &FaultsSpec{Fraction: 0.05, Seed: 13}},
		{Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5, 0.9},
			Queue:   &QueueSpec{Depth: 4, Policy: "drop"},
			Traffic: &TrafficSpec{Kind: "hotspot", HotFraction: 0.3, Hot: 5},
			Sim:     SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobSaturation, Engine: EngineDilated, Geometry: geo, Loads: []float64{0.9},
			Traffic: &TrafficSpec{Kind: "moving-hotspot", HotFraction: 0.3, Period: 100, Stride: 3},
			Queue:   &QueueSpec{Depth: 4},
			Sim:     SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobEstimate, Geometry: geo, Load: 0.8,
			Estimate: &EstimateSpec{Src: 3, Dst: 40},
			Queue:    &QueueSpec{Depth: 4},
			Sim:      SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.4},
			Loop:  &ClosedLoopSpec{Window: 4, Timeout: 16, MaxAttempts: 4, Retry: "backoff"},
			Queue: &QueueSpec{Depth: 1, Policy: "drop"},
			Sim:   SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
		{Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo, Rates: []float64{0.4},
			Loop: &ClosedLoopSpec{Window: 4, Timeout: 16},
			Sim:  SimSpec{Cycles: 400, Warmup: 100, Seed: 3, Shards: 2}},
	}
}

// TestAnatomyDoesNotPerturbResults pins the standing contract on the
// job surface: for every mode/engine spec the explain grid covers, the
// JobResult payload of an explained run is byte-identical to the
// unexplained run's — cold and warm (geometry cache shared across
// runs), at every shard count the spec declares. Anatomy rides beside
// the result, never inside it.
func TestAnatomyDoesNotPerturbResults(t *testing.T) {
	cache := NewGeometryCache(0)
	for i, spec := range anatomyGrid() {
		engine := spec.Engine
		if engine == "" {
			engine = EngineEDN
		}
		name := fmt.Sprintf("%d/%s/%s", i, spec.Mode, engine)
		t.Run(name, func(t *testing.T) {
			run := func(explain bool) ([]byte, *AnatomyReport) {
				s := spec
				if explain {
					s.Explain = &ExplainSpec{TopK: 4}
				}
				var rep *AnatomyReport
				res, err := RunJob(context.Background(), s, RunOptions{
					Cache:     cache,
					OnExplain: func(r *AnatomyReport) { rep = r },
				})
				if err != nil {
					t.Fatal(err)
				}
				// The result echoes the input spec verbatim; strip the
				// explain section so the comparison covers exactly the
				// measured payload.
				res.Spec.Explain = nil
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b, rep
			}
			plainCold, nilRep := run(false)
			if nilRep != nil {
				t.Fatalf("unexplained run produced an anatomy report")
			}
			explainedCold, repCold := run(true)
			explainedWarm, repWarm := run(true)
			plainWarm, _ := run(false)
			if string(plainCold) != string(explainedCold) {
				t.Fatalf("explained run moved the result payload (cold):\n%s\nvs\n%s", plainCold, explainedCold)
			}
			if string(plainWarm) != string(explainedWarm) {
				t.Fatalf("explained run moved the result payload (warm):\n%s\nvs\n%s", plainWarm, explainedWarm)
			}
			if string(plainCold) != string(plainWarm) {
				t.Fatalf("cache warmth moved the result payload")
			}
			if repCold == nil || repWarm == nil {
				t.Fatalf("explained run produced no anatomy report")
			}
			if !reflect.DeepEqual(repCold, repWarm) {
				t.Fatalf("anatomy report not reproducible:\n%+v\nvs\n%+v", repCold, repWarm)
			}
			if spec.Mode == JobClosedLoop {
				if repCold.Requests == nil || repCold.Requests.Completed == 0 {
					t.Fatalf("closed-loop report missing request split: %+v", repCold)
				}
			} else if repCold.Delivered.Count == 0 {
				t.Fatalf("empty anatomy report: %+v", repCold)
			}
		})
	}
}

// TestAnatomyDoesNotPerturbEngines pins the same contract at the
// engine level, where mid-run fault churn lives: a network with a
// collector attached cycles bit-identically to a bare one through an
// UpdateFaults swap at cycle 100 — per-cycle stats, totals and the
// latency histogram all match.
func TestAnatomyDoesNotPerturbEngines(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	masks, err := CompileFaults(cfg, BernoulliFaults(cfg, FaultWires, 0.08, NewRand(13)))
	if err != nil {
		t.Fatal(err)
	}

	for _, bp := range []struct {
		name   string
		policy QueuePolicy
	}{{"backpressure", QueueBackpressure}, {"drop", QueueDrop}} {
		for _, depth := range []int{0, 4} {
			t.Run(fmt.Sprintf("queue/%s/depth%d", bp.name, depth), func(t *testing.T) {
				mk := func() *QueueNetwork {
					n, err := NewQueueNetwork(cfg, QueueOptions{Depth: depth, Policy: bp.policy})
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
				plain, explained := mk(), mk()
				explained.SetAnatomy(NewAnatomyCollector(AnatomyOptions{}))
				runPerturbPair(t, cfg.Inputs(), cfg.Outputs(),
					plain.Cycle, explained.Cycle,
					func(c int) error {
						if c == 100 {
							if err := plain.UpdateFaults(masks); err != nil {
								return err
							}
							return explained.UpdateFaults(masks)
						}
						return nil
					})
				if plain.Totals() != explained.Totals() {
					t.Fatalf("totals diverged: %+v vs %+v", plain.Totals(), explained.Totals())
				}
				if plain.Latency().String() != explained.Latency().String() {
					t.Fatalf("latency diverged: %s vs %s", plain.Latency(), explained.Latency())
				}
			})
		}
	}

	t.Run("dilated", func(t *testing.T) {
		dcfg, err := DilatedCounterpart(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *DilatedQueueNetwork {
			n, err := NewDilatedQueueNetwork(dcfg, DilatedQueueOptions{Depth: 4, Policy: QueueBackpressure})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		plain, explained := mk(), mk()
		explained.SetAnatomy(NewAnatomyCollector(AnatomyOptions{}))
		dmasks, err := CompileDilatedMasks(dcfg, BernoulliDilatedSubWires(dcfg, 0.08, NewRand(13)))
		if err != nil {
			t.Fatal(err)
		}
		runPerturbPair(t, dcfg.Ports(), dcfg.Ports(),
			plain.Cycle, explained.Cycle,
			func(c int) error {
				if c == 100 {
					if err := plain.UpdateFaults(dmasks); err != nil {
						return err
					}
					return explained.UpdateFaults(dmasks)
				}
				return nil
			})
		if plain.Totals() != explained.Totals() {
			t.Fatalf("totals diverged: %+v vs %+v", plain.Totals(), explained.Totals())
		}
		if plain.Latency().String() != explained.Latency().String() {
			t.Fatalf("latency diverged: %s vs %s", plain.Latency(), explained.Latency())
		}
	})

	t.Run("loop", func(t *testing.T) {
		lo := ClosedLoopOptions{
			Window: 4, Rate: 0.5, Timeout: 16, MaxAttempts: 4,
			Retry: RetryBackoff, BackoffBase: 2, BackoffCap: 8, Seed: 5,
		}
		mk := func() *ClosedLoop {
			fwd, err := NewQueueNetwork(cfg, QueueOptions{Depth: 1, Policy: QueueDrop})
			if err != nil {
				t.Fatal(err)
			}
			rev, err := NewQueueNetwork(cfg, QueueOptions{Depth: 1, Policy: QueueDrop})
			if err != nil {
				t.Fatal(err)
			}
			loop, err := NewClosedLoop(fwd, rev, cfg.Inputs(), cfg.Outputs(), lo)
			if err != nil {
				t.Fatal(err)
			}
			return loop
		}
		plain, explained := mk(), mk()
		explained.SetAnatomy(NewAnatomyCollector(AnatomyOptions{}))
		for c := 0; c < 300; c++ {
			cs1, err := plain.Cycle()
			if err != nil {
				t.Fatal(err)
			}
			cs2, err := explained.Cycle()
			if err != nil {
				t.Fatal(err)
			}
			if cs1 != cs2 {
				t.Fatalf("cycle %d: stats diverged: %+v vs %+v", c, cs1, cs2)
			}
		}
		if plain.Ledger() != explained.Ledger() {
			t.Fatalf("ledger diverged: %+v vs %+v", plain.Ledger(), explained.Ledger())
		}
	})
}

// TestExplainHotSpotNamesCongestionRoot pins the headline diagnosis:
// explain on a hot-spot workload must report a congestion tree whose
// root is the hot destination's final-stage switch — the tomography
// names the culprit, not just the symptom.
func TestExplainHotSpotNamesCongestionRoot(t *testing.T) {
	const hot = 5
	spec := JobSpec{
		Mode:     JobLatency,
		Geometry: &GeometrySpec{A: 16, B: 4, C: 4, L: 2},
		Load:     0.9,
		Traffic:  &TrafficSpec{Kind: "hotspot", HotFraction: 0.3, Hot: hot},
		Queue:    &QueueSpec{Depth: 4},
		Explain:  &ExplainSpec{},
		Sim:      SimSpec{Cycles: 2000, Warmup: 200, Seed: 1},
	}
	var rep *AnatomyReport
	if _, err := RunJob(context.Background(), spec, RunOptions{
		OnExplain: func(r *AnatomyReport) { rep = r },
	}); err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Trees) == 0 {
		t.Fatalf("no congestion trees detected: %+v", rep)
	}
	top := rep.Trees[0]
	if top.RootStage != rep.Stages || top.RootTerminal != hot {
		t.Fatalf("top tree rooted at stage %d terminal %d, want the hot output (stage %d terminal %d); trees: %+v",
			top.RootStage, top.RootTerminal, rep.Stages, hot, rep.Trees)
	}
	if top.Depth < 2 {
		t.Fatalf("hot-spot tree did not spread backward (depth %d): %+v", top.Depth, top)
	}
}

// TestExplainSpecValidation: explain only rides the modes whose runs
// have an anatomy source.
func TestExplainSpecValidation(t *testing.T) {
	geo := &GeometrySpec{A: 16, B: 4, C: 4, L: 2}
	bad := []JobSpec{
		{Mode: JobDrain, Geometry: geo, DrainQ: 2, Explain: &ExplainSpec{}},
		{Mode: JobLifetime, Geometry: geo, Explain: &ExplainSpec{},
			Lifetime: &LifetimeSpec{Epochs: 2, EpochCycles: 50, Load: 0.5}},
	}
	for i, s := range bad {
		if _, err := Run(context.Background(), s); err == nil {
			t.Fatalf("spec %d (%s/%s): explain accepted where unsupported", i, s.Mode, s.Engine)
		}
	}
}
