package lifecycle

import (
	"math"
	"testing"

	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/xrand"
)

func mustCfg(t *testing.T, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSpecValidation(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 2)
	bad := []Spec{
		{Mode: faults.WireFaults, MTBF: 0, MTTR: 5},
		{Mode: faults.WireFaults, MTBF: 10, MTTR: 0.5},
		{Mode: faults.Mode(42), MTBF: 10, MTTR: 5},
		{Mode: faults.WireFaults, MTBF: 10, MTTR: 5, BlastRate: 1.5},
		{Mode: faults.WireFaults, MTBF: 10, MTTR: 5, BlastRate: 0.1, BlastRadius: -1},
		{Mode: faults.WireFaults, MTBF: 10, MTTR: 5, BlastRate: 0.1, BlastMTTR: 0.2},
	}
	for i, spec := range bad {
		if _, err := New(cfg, spec, xrand.New(1)); err == nil {
			t.Errorf("spec %d (%+v) should not validate", i, spec)
		}
	}
	if _, err := New(cfg, Spec{Mode: faults.MixedFaults, MTBF: 20, MTTR: 5, BlastRate: 0.05, BlastRadius: 1}, xrand.New(1)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestStepIsDeterministic(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 3)
	spec := Spec{Mode: faults.MixedFaults, MTBF: 12, MTTR: 4, BlastRate: 0.2, BlastRadius: 1}
	run := func() []string {
		p, err := New(cfg, spec, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		for e := 0; e < 50; e++ {
			log = append(log, p.Step().String())
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d diverged:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

func TestStepSetsAreValid(t *testing.T) {
	// Every emitted set must compile: IDs in range for every mode.
	cfg := mustCfg(t, 4, 2, 2, 3)
	for _, mode := range []faults.Mode{faults.WireFaults, faults.SwitchFaults, faults.MixedFaults} {
		for _, timing := range []Timing{Exponential, Deterministic} {
			p, err := New(cfg, Spec{Mode: mode, MTBF: 6, MTTR: 3, Timing: timing, BlastRate: 0.3, BlastRadius: 2}, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 40; e++ {
				set := p.Step()
				if _, err := faults.Compile(cfg, set); err != nil {
					t.Fatalf("%v/%v epoch %d: %v (%v)", mode, timing, e, err, set)
				}
			}
		}
	}
}

func TestChurnReachesSteadyStateDeadFraction(t *testing.T) {
	// MTBF 30, MTTR 10 -> long-run dead fraction 0.25. Average the
	// census over a long window and require it within a few points.
	cfg := mustCfg(t, 8, 4, 2, 3)
	spec := Spec{Mode: faults.WireFaults, MTBF: 30, MTTR: 10}
	if got := spec.DeadFractionSteadyState(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("steady-state fraction %g, want 0.25", got)
	}
	p, err := New(cfg, spec, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const warm, window = 200, 2000
	for e := 0; e < warm; e++ {
		p.Step()
	}
	sum := 0.0
	for e := 0; e < window; e++ {
		p.Step()
		sum += p.DeadFraction()
	}
	if got := sum / window; math.Abs(got-0.25) > 0.03 {
		t.Errorf("mean dead fraction %g, want ~0.25", got)
	}
}

func TestDeterministicTimingCycles(t *testing.T) {
	// With deterministic timing every component is alive exactly MTBF
	// epochs then dead exactly MTTR epochs, so over one full period the
	// per-component dead count is exactly MTTR.
	cfg := mustCfg(t, 4, 4, 1, 1) // one boundary... l=1: boundaries 1..1
	spec := Spec{Mode: faults.WireFaults, MTBF: 6, MTTR: 2, Timing: Deterministic}
	p, err := New(cfg, spec, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	const period = 8
	// Skip the first period (random phases), then count dead component
	// observations over exactly one period.
	for e := 0; e < period; e++ {
		p.Step()
	}
	deadObs := 0
	for e := 0; e < period; e++ {
		deadObs += len(p.Step().Wires)
	}
	wires := cfg.WiresAfterStage(1)
	if want := wires * 2; deadObs != want {
		t.Errorf("dead observations over one period = %d, want %d", deadObs, want)
	}
}

func TestBlastKillsContiguousBlock(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 3)
	// Blast-only churn: wire mode with no wire deaths possible? Use a
	// spec whose MTBF is enormous so independent churn never fires, and
	// force a blast every epoch.
	spec := Spec{Mode: faults.WireFaults, MTBF: 1e9, MTTR: 2, BlastRate: 1, BlastRadius: 1, BlastMTTR: 3}
	p, err := New(cfg, spec, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sawBlock := false
	for e := 0; e < 20; e++ {
		set := p.Step()
		if len(set.Wires) != 0 {
			t.Fatalf("epoch %d: independent churn fired with MTBF 1e9: %v", e, set)
		}
		// Group dead switches per stage and look for a contiguous run.
		perStage := map[int][]int{}
		for _, id := range set.Switches {
			perStage[id.Stage] = append(perStage[id.Stage], id.Switch)
		}
		// Several blasts can overlap in time, so no per-epoch upper
		// bound holds; require only that blocks of neighbors appear.
		for _, sws := range perStage {
			if len(sws) >= 2 {
				sawBlock = true
			}
		}
	}
	if !sawBlock {
		t.Error("20 guaranteed blasts never produced a contiguous block of >= 2 switches")
	}
}

// TestChurnClockLimits: a mean so large that 1-1/mean rounds to 1 means
// "never" — the component keeps its state for the whole run instead of
// flipping every epoch — and non-finite clocks, blast parameters and
// unknown timings are rejected by the one Spec validator.
func TestChurnClockLimits(t *testing.T) {
	cfg := mustCfg(t, 4, 2, 2, 2)
	never, err := New(cfg, Spec{Mode: faults.MixedFaults, MTBF: 1e17, MTTR: 5}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := New(cfg, Spec{Mode: faults.WireFaults, MTBF: 2, MTTR: 1e300}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for e := 0; e < 100; e++ {
		if set := never.Step(); !set.IsZero() || never.DeadFraction() != 0 {
			t.Fatalf("epoch %d: MTBF 1e17 killed %v", e, set)
		}
		stuck.Step()
		if f := stuck.DeadFraction(); f < prev {
			t.Fatalf("epoch %d: MTTR 1e300 repaired a component (dead fraction %g after %g)", e, f, prev)
		}
		prev = stuck.DeadFraction()
	}
	if prev != 1 {
		t.Errorf("MTBF 2 left %g of the wires alive after 100 epochs", 1-prev)
	}

	nan, inf := math.NaN(), math.Inf(1)
	for i, spec := range []Spec{
		{MTBF: nan, MTTR: 5},
		{MTBF: 10, MTTR: nan},
		{MTBF: inf, MTTR: 5},
		{MTBF: 10, MTTR: inf},
		{MTBF: -inf, MTTR: 5},
		{MTBF: 10, MTTR: 5, BlastRate: nan},
		{MTBF: 10, MTTR: 5, BlastRate: 0.1, BlastMTTR: nan},
		{MTBF: 10, MTTR: 5, BlastMTTR: inf},
		{MTBF: 10, MTTR: 5, Timing: Timing(7)},
	} {
		if _, err := New(cfg, spec, xrand.New(1)); err == nil {
			t.Errorf("spec %d (%+v) should not validate", i, spec)
		}
	}
}
