package faults

import (
	"math"
	"testing"

	"edn/internal/analytic"
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

func TestEmptySetCompilesEmpty(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	m, err := Compile(cfg, Set{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Empty() {
		t.Errorf("empty set compiled non-empty: %v", m)
	}
	if m.LiveInputs() != nil {
		t.Errorf("empty mask has a LiveInputs row")
	}
	for s := 1; s <= cfg.L+1; s++ {
		if m.LiveStageOutputs(s) != nil {
			t.Errorf("empty mask has a row for stage %d", s)
		}
	}
	if got, want := m.ReachableOutputs(), cfg.Outputs(); got != want {
		t.Errorf("empty mask reaches %d outputs, want %d", got, want)
	}
	if got, want := m.LiveInputCount(), cfg.Inputs(); got != want {
		t.Errorf("empty mask has %d live inputs, want %d", got, want)
	}
}

func TestCompileValidation(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	cases := []Set{
		{Switches: []SwitchID{{Stage: 0, Switch: 0}}},
		{Switches: []SwitchID{{Stage: cfg.L + 2, Switch: 0}}},
		{Switches: []SwitchID{{Stage: 1, Switch: cfg.SwitchesInStage(1)}}},
		{Wires: []WireID{{Boundary: -1, Wire: 0}}},
		{Wires: []WireID{{Boundary: cfg.L + 1, Wire: 0}}},
		{Wires: []WireID{{Boundary: 1, Wire: cfg.WiresAfterStage(1)}}},
		{Ports: []PortID{{Stage: 1, Switch: 0, Bucket: cfg.B, Wire: 0}}},
		{Ports: []PortID{{Stage: 1, Switch: 0, Bucket: 0, Wire: cfg.C}}},
		{Ports: []PortID{{Stage: cfg.L + 1, Switch: 0, Bucket: 0, Wire: 1}}},
	}
	for i, set := range cases {
		if _, err := Compile(cfg, set); err == nil {
			t.Errorf("case %d: invalid set %v compiled without error", i, set)
		}
	}
}

func TestDeadCrossbarKillsItsOutputs(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	m, err := Compile(cfg, Set{Switches: []SwitchID{{Stage: cfg.L + 1, Switch: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.ReachableOutputs(), cfg.Outputs()-cfg.C; got != want {
		t.Errorf("dead crossbar: %d outputs reachable, want %d", got, want)
	}
	row := m.LiveStageOutputs(cfg.L + 1)
	for tmn := 0; tmn < cfg.Outputs(); tmn++ {
		wantLive := tmn/cfg.C != 3
		if row[tmn] != wantLive {
			t.Errorf("output %d live = %v, want %v", tmn, row[tmn], wantLive)
		}
	}
	// The boundary-l wires feeding the dead crossbar must be masked out of
	// the last hyperbar stage's output row.
	last := m.LiveStageOutputs(cfg.L)
	if last == nil {
		t.Fatal("dead crossbar left the last hyperbar stage unmasked")
	}
	dead := 0
	for _, ok := range last {
		if !ok {
			dead++
		}
	}
	if dead != cfg.C {
		t.Errorf("dead crossbar masked %d upstream wires, want %d", dead, cfg.C)
	}
}

func TestDeadStage1SwitchSeversItsInputs(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	m, err := Compile(cfg, Set{Switches: []SwitchID{{Stage: 1, Switch: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	liveIn := m.LiveInputs()
	if liveIn == nil {
		t.Fatal("dead stage-1 switch left inputs unmasked")
	}
	for i := range liveIn {
		wantLive := i/cfg.A != 1
		if liveIn[i] != wantLive {
			t.Errorf("input %d live = %v, want %v", i, liveIn[i], wantLive)
		}
	}
	if got, want := m.LiveInputCount(), cfg.Inputs()-cfg.A; got != want {
		t.Errorf("LiveInputCount = %d, want %d", got, want)
	}
	// With b*c = a, a single dead first-stage switch cannot disconnect any
	// output: the other stage-1 switches still reach every bucket.
	if got, want := m.ReachableOutputs(), cfg.Outputs(); got != want {
		t.Errorf("reachable outputs = %d, want %d", got, want)
	}
}

func TestSingleDeadWireKeepsBucketAlive(t *testing.T) {
	// EDN(4,4,2,2): every bucket has c=2 wires, so one dead interstage
	// wire must not disconnect anything.
	cfg := mustCfg(t, 4, 4, 2, 2)
	m, err := Compile(cfg, Set{Wires: []WireID{{Boundary: 1, Wire: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Empty() {
		t.Fatal("dead wire compiled to empty mask")
	}
	if got, want := m.ReachableOutputs(), cfg.Outputs(); got != want {
		t.Errorf("reachable outputs = %d, want %d", got, want)
	}
	if m.DeadWires() != 1 {
		t.Errorf("DeadWires = %d, want 1", m.DeadWires())
	}
	row := m.LiveStageOutputs(1)
	dead := 0
	for _, ok := range row {
		if !ok {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("stage-1 row masks %d outputs, want exactly 1", dead)
	}
}

func TestDeltaCornerSingleWireDisconnects(t *testing.T) {
	// In the c=1 delta corner every bucket is a single wire: killing one
	// interstage wire must strictly reduce reachability.
	cfg := mustCfg(t, 4, 4, 1, 2)
	m, err := Compile(cfg, Set{Wires: []WireID{{Boundary: 1, Wire: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReachableOutputs(); got != cfg.Outputs() {
		// Boundary 1 is the last interstage (identity into crossbars):
		// killing wire 0 removes one crossbar input but its c=1 crossbar
		// then has no fed inputs, so its output is unreachable.
		t.Logf("reachable = %d of %d", got, cfg.Outputs())
	}
	// Stage rates: the masked row must have exactly one dead label.
	row := m.LiveStageOutputs(1)
	if row == nil {
		t.Fatal("no mask row for the faulted stage")
	}
}

func TestBlastRadius(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	set, err := Blast(cfg, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Switches) != 3 {
		t.Fatalf("blast killed %d switches, want 3", len(set.Switches))
	}
	// Clamped at the stage edge.
	set, err = Blast(cfg, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Switches) != 3 { // switches 0, 1, 2
		t.Errorf("edge blast killed %d switches, want 3", len(set.Switches))
	}
	if _, err := Blast(cfg, 0, 0, 1); err == nil {
		t.Error("blast at stage 0 did not error")
	}
	if _, err := Blast(cfg, 1, cfg.SwitchesInStage(1), 0); err == nil {
		t.Error("blast past the last switch did not error")
	}
}

func TestPlanIsNestedAndMarginallyBernoulli(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	plan := NewPlan(cfg, MixedFaults, xrand.New(42))
	prev := map[WireID]bool{}
	prevSw := map[SwitchID]bool{}
	for _, f := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		set := plan.At(f)
		cur := map[WireID]bool{}
		for _, w := range set.Wires {
			cur[w] = true
		}
		curSw := map[SwitchID]bool{}
		for _, s := range set.Switches {
			curSw[s] = true
		}
		for w := range prev {
			if !cur[w] {
				t.Fatalf("plan not nested: wire %v dead at lower fraction, alive at %g", w, f)
			}
		}
		for s := range prevSw {
			if !curSw[s] {
				t.Fatalf("plan not nested: switch %v dead at lower fraction, alive at %g", s, f)
			}
		}
		prev, prevSw = cur, curSw
	}
	// f=1 kills the entire population.
	all := plan.At(1)
	wires := 0
	for i := 1; i <= cfg.L; i++ {
		wires += cfg.WiresAfterStage(i)
	}
	switches := 0
	for s := 1; s <= cfg.L+1; s++ {
		switches += cfg.SwitchesInStage(s)
	}
	if len(all.Wires) != wires || len(all.Switches) != switches {
		t.Errorf("plan.At(1) = %d wires, %d switches; want %d, %d",
			len(all.Wires), len(all.Switches), wires, switches)
	}
	if !plan.At(0).IsZero() {
		t.Error("plan.At(0) is not empty")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	if !Bernoulli(cfg, MixedFaults, 0, xrand.New(1)).IsZero() {
		t.Error("Bernoulli(0) sampled faults")
	}
	set := Bernoulli(cfg, WireFaults, 1, xrand.New(1))
	want := 0
	for i := 1; i <= cfg.L; i++ {
		want += cfg.WiresAfterStage(i)
	}
	if len(set.Wires) != want || len(set.Switches) != 0 {
		t.Errorf("Bernoulli(wires, 1) = %d wires %d switches, want %d wires", len(set.Wires), len(set.Switches), want)
	}
}

func TestExpectedBandwidthMatchesClosedFormUnfaulted(t *testing.T) {
	for _, g := range []struct{ a, b, c, l int }{
		{4, 4, 1, 2}, {4, 4, 2, 2}, {16, 4, 4, 2}, {64, 16, 4, 2}, {8, 4, 2, 3},
	} {
		cfg := mustCfg(t, g.a, g.b, g.c, g.l)
		m := MustCompile(cfg, Set{})
		for _, r := range []float64{0.1, 0.5, 1} {
			got := ExpectedUniformBandwidth(m, r)
			want := analytic.Bandwidth(cfg, r)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("%v r=%g: per-wire recursion %.12f != closed form %.12f", cfg, r, got, want)
			}
			gotPA, wantPA := got/(r*float64(cfg.Inputs())), analytic.PA(cfg, r)
			if math.Abs(gotPA-wantPA) > 1e-9 {
				t.Errorf("%v r=%g: PA %.12f != %.12f", cfg, r, gotPA, wantPA)
			}
		}
	}
}

func TestExpectedBandwidthDegradesMonotonically(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	plan := NewPlan(cfg, WireFaults, xrand.New(7))
	prev := math.Inf(1)
	for _, f := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8} {
		m := MustCompile(cfg, plan.At(f))
		bw := ExpectedUniformBandwidth(m, 1)
		if bw > prev+1e-9 {
			t.Errorf("expected bandwidth rose from %.6f to %.6f at fraction %g", prev, bw, f)
		}
		prev = bw
	}
}

func TestExpectedBandwidthFullyDeadStageIsZero(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	var set Set
	for sw := 0; sw < cfg.SwitchesInStage(2); sw++ {
		set.Switches = append(set.Switches, SwitchID{Stage: 2, Switch: sw})
	}
	m := MustCompile(cfg, set)
	if bw := ExpectedUniformBandwidth(m, 1); bw != 0 {
		t.Errorf("fully dead stage: expected bandwidth %g, want 0", bw)
	}
	if got := m.ReachableOutputs(); got != 0 {
		t.Errorf("fully dead stage: %d outputs reachable, want 0", got)
	}
}

func TestDeadOutputPortExpectedLoss(t *testing.T) {
	// Killing one crossbar output port removes exactly that terminal's
	// contribution: the expected bandwidth must drop by the single-port
	// delivery probability, which the recursion computes per port.
	cfg := mustCfg(t, 16, 4, 4, 2)
	base := ExpectedUniformBandwidth(MustCompile(cfg, Set{}), 1)
	m := MustCompile(cfg, Set{Ports: []PortID{{Stage: cfg.L + 1, Switch: 0, Bucket: 0, Wire: 0}}})
	got := ExpectedUniformBandwidth(m, 1)
	perPort := base / float64(cfg.Outputs())
	if math.Abs(base-got-perPort) > 1e-9 {
		t.Errorf("dead output port loss = %.9f, want one port's %.9f", base-got, perPort)
	}
	if got := m.ReachableOutputs(); got != cfg.Outputs()-1 {
		t.Errorf("reachable = %d, want %d", got, cfg.Outputs()-1)
	}
}

// TestCheckFraction: the one fault-fraction check rejects anything
// outside [0,1], NaN included.
func TestCheckFraction(t *testing.T) {
	for _, f := range []float64{0, 0.25, 1} {
		if err := CheckFraction(f); err != nil {
			t.Errorf("fraction %g rejected: %v", f, err)
		}
	}
	for _, f := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		if CheckFraction(f) == nil {
			t.Errorf("fraction %g accepted", f)
		}
	}
}
