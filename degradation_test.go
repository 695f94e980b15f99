package edn

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDegradationResultsLabelEitherNetwork pins the one label rule of
// the degradation and lifetime results: AvailabilitySweep and
// LifetimeSweep run an EDN and its counterpart under the same Options,
// each result names its network through Network(), an EDN result's JSON
// has no Dilated key and its String() text is the format it always had,
// and a dilated result carries the zero Config and the census of a
// sub-wire sample (mode wires, no dead switches, every input live, no
// blast or repair-window churn).
func TestDegradationResultsLabelEitherNetwork(t *testing.T) {
	cfg, err := New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qopts := QueueOptions{Depth: 1, Policy: QueueDrop}
	opts := SimOptions{Cycles: 120, Warmup: 20, Seed: 5}
	aopts := AvailabilityOptions{Fractions: []float64{0, 0.2}, WithExpected: true}
	lopts := LifetimeOptions{Epochs: 3, EpochCycles: 40, Spec: LifecycleSpec{MTBF: 12, MTTR: 3}}
	for _, net := range []Net{EDNNet{Config: cfg, Queue: qopts}, DilatedNet{Config: dcfg, Queue: qopts}} {
		t.Run(net.String(), func(t *testing.T) {
			avail, err := AvailabilitySweep(net, aopts, nil, opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			life, err := LifetimeSweep(net, lopts, nil, opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, dilated := net.(DilatedNet)
			results := map[string]interface{ Network() string }{"availability": avail[1], "lifetime": life}
			for name, r := range results {
				if got := r.Network(); got != net.String() {
					t.Errorf("%s result names %q, want %q", name, got, net.String())
				}
				blob, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(blob, &doc); err != nil {
					t.Fatal(err)
				}
				if _, ok := doc["Dilated"]; ok != dilated {
					t.Errorf("%s JSON has a Dilated key: %v, want %v", name, ok, dilated)
				}
				if !dilated {
					continue
				}
				if got := fmt.Sprint(doc["Config"]); got != "map[A:0 B:0 C:0 L:0]" {
					t.Errorf("%s JSON Config %s, want the zero Config", name, got)
				}
				if got := fmt.Sprint(doc["Dilated"]); got != fmt.Sprintf("map[B:%d D:%d L:%d]", dcfg.B, dcfg.D, dcfg.L) {
					t.Errorf("%s JSON Dilated %s, want %+v", name, got, dcfg)
				}
			}
			if !dilated {
				a := avail[1]
				want := fmt.Sprintf("%v %v f=%.3f: thr=%.2f/cycle (%.3f/input) reach=%.3f p99=%.0f",
					a.Config, a.Mode, a.FaultFraction, a.Throughput, a.ThroughputPerInput,
					a.ReachableFraction, a.LatencyP99)
				if got := a.String(); got != want || !strings.HasPrefix(got, "EDN(4,2,2,2) wires f=0.200: ") {
					t.Errorf("EDN availability String() = %q, want %q", got, want)
				}
				want = fmt.Sprintf("%v %v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
					life.Config, life.Spec.Mode, life.Spec.MTBF, life.Spec.MTTR,
					life.LifetimeBandwidth, 100*life.TimeBelowThreshold, life.RecoveryHalfLife)
				if got := life.String(); got != want || !strings.HasPrefix(got, "EDN(4,2,2,2) wires mtbf=12 mttr=3: ") {
					t.Errorf("EDN lifetime String() = %q, want %q", got, want)
				}
				return
			}
			for _, a := range avail {
				if a.Config != (Config{}) || a.Dilated != dcfg || a.Mode != FaultWires ||
					a.DeadSwitches != 0 || a.LiveInputFraction != 1 {
					t.Errorf("dilated availability point f=%g: label or census %+v", a.FaultFraction, a)
				}
			}
			if avail[0].DeadWires != 0 || avail[1].DeadWires <= 0 {
				t.Errorf("dead sub-wires %g at f=0, %g at f=0.2", avail[0].DeadWires, avail[1].DeadWires)
			}
			// The spec echoes the clocks, with mode wires and no blast or
			// repair-window churn.
			if life.Config != (Config{}) || life.Dilated != dcfg || life.Spec != (LifecycleSpec{Mode: FaultWires, MTBF: 12, MTTR: 3}) {
				t.Errorf("dilated lifetime label or spec: %+v, %+v, %+v", life.Config, life.Dilated, life.Spec)
			}
		})
	}
}

// TestDilatedRejectsEDNOnlyFaultSettings: a dilated delta fails only by
// sub-wires, and it has no switch blocks to blast and no repair
// batching. Every sweep over a DilatedNet therefore rejects another
// failing population, a blast rate and a repair window above 1 with a
// simulate: error before any shard runs, in both lifetime families,
// where it used to measure the wires run under the switches label. The
// same settings run on the EDN, and a repair window of 1 (immediate
// repair) runs on the counterpart.
func TestDilatedRejectsEDNOnlyFaultSettings(t *testing.T) {
	cfg, err := New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qopts := QueueOptions{Depth: 1, Policy: QueueDrop}
	ednNet, dilNet := EDNNet{Config: cfg, Queue: qopts}, DilatedNet{Config: dcfg, Queue: qopts}
	var shardsRun atomic.Int64
	opts := SimOptions{Cycles: 60, Warmup: 10, Seed: 3, OnStage: func(name string, _, _ int, _ time.Time, _ time.Duration) {
		if name == "shard" {
			shardsRun.Add(1)
		}
	}}
	type sweep func(Net, LifecycleSpec) error
	sweeps := map[string]sweep{
		"LifetimeSweep": func(net Net, spec LifecycleSpec) error {
			_, err := LifetimeSweep(net, LifetimeOptions{Epochs: 2, EpochCycles: 20, Spec: spec}, nil, opts, 2)
			return err
		},
		"ClosedLoopLifetimeSweep": func(net Net, spec LifecycleSpec) error {
			_, err := ClosedLoopLifetimeSweep(net, LifetimeOptions{Epochs: 2, EpochCycles: 20, Spec: spec}, ClosedLoopOptions{}, opts, 2)
			return err
		},
		"AvailabilitySweep": func(net Net, spec LifecycleSpec) error {
			_, err := AvailabilitySweep(net, AvailabilityOptions{Fractions: []float64{0.1}, Mode: spec.Mode}, nil, opts, 2)
			return err
		},
	}
	bad := map[string]LifecycleSpec{
		"switches": {Mode: FaultSwitches, MTBF: 10, MTTR: 3},
		"mixed":    {Mode: FaultMixed, MTBF: 10, MTTR: 3},
		"blast":    {MTBF: 10, MTTR: 3, BlastRate: 0.3},
		"window":   {MTBF: 10, MTTR: 3, RepairWindow: 4},
	}
	for name, run := range sweeps {
		for setting, spec := range bad {
			if name == "AvailabilitySweep" && spec.Mode == FaultWires {
				continue // a degradation sweep has a mode and no churn
			}
			shardsRun.Store(0)
			err := run(dilNet, spec)
			if err == nil || !strings.HasPrefix(err.Error(), "simulate: ") {
				t.Errorf("%s on the dilated delta with %s: error %v, want a simulate: error", name, setting, err)
			}
			if n := shardsRun.Load(); n != 0 {
				t.Errorf("%s on the dilated delta with %s: %d shards ran before the error", name, setting, n)
			}
			if err := run(ednNet, spec); err != nil {
				t.Errorf("%s on the EDN with %s: %v", name, setting, err)
			}
		}
		if err := run(dilNet, LifecycleSpec{MTBF: 10, MTTR: 3, RepairWindow: 1}); err != nil {
			t.Errorf("%s on the dilated delta with repair window 1: %v", name, err)
		}
	}
	// Every violation is named at once.
	_, err = LifetimeSweep(dilNet, LifetimeOptions{Epochs: 2, Spec: LifecycleSpec{Mode: FaultSwitches, MTBF: 10, MTTR: 3, BlastRate: 0.3, RepairWindow: 4}}, nil, opts, 1)
	for _, want := range []string{"switches", "blast rate 0.3", "repair window 4"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("combined error %v does not name %q", err, want)
		}
	}
}

// TestUnknownFaultModeIsAnError: a FaultMode other than wires, switches
// or mixed names no population, so every fault sweep on either network
// rejects it with a simulate: error before any shard runs, instead of
// measuring the healthy network under a "mode(3)" label.
func TestUnknownFaultModeIsAnError(t *testing.T) {
	cfg, err := New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qopts := QueueOptions{Policy: QueueDrop}
	var shardsRun atomic.Int64
	opts := SimOptions{Cycles: 60, Seed: 3, OnStage: func(name string, _, _ int, _ time.Time, _ time.Duration) {
		if name == "shard" {
			shardsRun.Add(1)
		}
	}}
	lopts := LifetimeOptions{Epochs: 2, EpochCycles: 20, Spec: LifecycleSpec{Mode: FaultMode(3), MTBF: 10, MTTR: 3}}
	for _, net := range []Net{EDNNet{Config: cfg, Queue: qopts}, DilatedNet{Config: dcfg, Queue: qopts}} {
		for name, run := range map[string]func() error{
			"AvailabilitySweep": func() error {
				_, err := AvailabilitySweep(net, AvailabilityOptions{Fractions: []float64{0.5}, Mode: lopts.Spec.Mode}, nil, opts, 2)
				return err
			},
			"LifetimeSweep": func() error {
				_, err := LifetimeSweep(net, lopts, nil, opts, 2)
				return err
			},
			"ClosedLoopLifetimeSweep": func() error {
				_, err := ClosedLoopLifetimeSweep(net, lopts, ClosedLoopOptions{}, opts, 2)
				return err
			},
		} {
			shardsRun.Store(0)
			if err := run(); err == nil || !strings.HasPrefix(err.Error(), "simulate: ") {
				t.Errorf("%s on %v with mode(3): error %v, want a simulate: error", name, net, err)
			}
			if n := shardsRun.Load(); n != 0 {
				t.Errorf("%s on %v with mode(3): %d shards ran before the error", name, net, n)
			}
		}
	}
}
