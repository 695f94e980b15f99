package dilated_test

import (
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/xrand"
)

func mustDilated(t *testing.T, b, d, l int) dilated.Config {
	t.Helper()
	cfg, err := dilated.New(b, d, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// compile folds dead sub-wires into the capacity model through their
// compiled masks.
func compile(cfg dilated.Config, set faults.Set) (*dilated.Degraded, error) {
	m, err := dilatedsim.Compile(cfg, set)
	if err != nil {
		return nil, err
	}
	return cfg.CompileFaults(m)
}

// subWire is sub-wire (boundary bd, group g, wire w) of cfg.
func subWire(cfg dilated.Config, bd, g, w int) faults.PortID {
	return faults.PortID{Stage: bd, Switch: g / cfg.B, Bucket: g % cfg.B, Wire: w}
}

func TestCompileEmptyMatchesHealthyPA(t *testing.T) {
	for _, cfg := range []dilated.Config{
		mustDilated(t, 2, 2, 3),
		mustDilated(t, 4, 2, 2),
		mustDilated(t, 2, 4, 4),
		mustDilated(t, 4, 1, 3), // undilated delta corner
	} {
		deg, err := compile(cfg, faults.Set{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0, 0.25, 0.5, 1} {
			if got, want := deg.PA(r), cfg.PA(r); math.Abs(got-want) > 1e-12 {
				t.Errorf("%v r=%g: degraded empty PA %.15f != healthy %.15f", cfg, r, got, want)
			}
		}
	}
}

func TestExpectedDegradedEndpoints(t *testing.T) {
	cfg := mustDilated(t, 2, 2, 4)
	zero, err := cfg.ExpectedDegraded(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := zero.PA(1), cfg.PA(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("f=0: PA %.15f != healthy %.15f", got, want)
	}
	all, err := cfg.ExpectedDegraded(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.PA(1); got != 0 {
		t.Errorf("f=1 (every sub-wire dead): PA = %g, want 0", got)
	}
}

func TestExpectedDegradedMonotone(t *testing.T) {
	cfg := mustDilated(t, 4, 2, 3)
	prev := math.Inf(1)
	for _, f := range []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8} {
		deg, err := cfg.ExpectedDegraded(f)
		if err != nil {
			t.Fatal(err)
		}
		pa := deg.PA(1)
		if pa > prev+1e-12 {
			t.Errorf("PA not monotone: f=%g gives %.6f after %.6f", f, pa, prev)
		}
		if pa < 0 || pa > 1 {
			t.Errorf("f=%g: PA %g out of [0,1]", f, pa)
		}
		prev = pa
	}
}

func TestCompileValidation(t *testing.T) {
	cfg := mustDilated(t, 2, 2, 3)
	for _, id := range []faults.PortID{
		subWire(cfg, 0, 0, 0),
		subWire(cfg, 4, 0, 0),
		subWire(cfg, 1, -1, 0),
		subWire(cfg, 1, cfg.Ports(), 0),
		subWire(cfg, 1, 0, 2),
		subWire(cfg, 1, 0, -1),
	} {
		if _, err := compile(cfg, faults.Set{Ports: []faults.PortID{id}}); err == nil {
			t.Errorf("%+v should not compile", id)
		}
	}
	// Duplicates are idempotent.
	dup := faults.Set{Ports: []faults.PortID{
		subWire(cfg, 1, 3, 1),
		subWire(cfg, 1, 3, 1),
	}}
	deg, err := compile(cfg, dup)
	if err != nil {
		t.Fatal(err)
	}
	if deg.DeadSubWires() != 1 {
		t.Errorf("duplicate sub-wire counted %g times", deg.DeadSubWires())
	}
}

func TestSampledTracksExpectation(t *testing.T) {
	// The PA of a compiled Bernoulli sample should track the Binomial
	// expectation curve at the same fraction.
	cfg := mustDilated(t, 2, 2, 5)
	const f = 0.15
	expDeg, err := cfg.ExpectedDegraded(f)
	if err != nil {
		t.Fatal(err)
	}
	want := expDeg.PA(1)
	rng := xrand.New(17)
	sum := 0.0
	const samples = 20
	for i := 0; i < samples; i++ {
		deg, err := compile(cfg, dilatedsim.SubWires(cfg).Bernoulli(f, rng))
		if err != nil {
			t.Fatal(err)
		}
		sum += deg.PA(1)
	}
	if got := sum / samples; math.Abs(got-want) > 0.02 {
		t.Errorf("sampled mean PA %.4f vs expectation %.4f", got, want)
	}
}

func TestDegradedBandwidth(t *testing.T) {
	cfg := mustDilated(t, 2, 2, 3)
	deg, err := cfg.ExpectedDegraded(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deg.Bandwidth(1), deg.PA(1)*float64(cfg.Ports()); math.Abs(got-want) > 1e-12 {
		t.Errorf("bandwidth %g != PA*ports %g", got, want)
	}
}

// TestMasksBuiltCapacityModel pins the capacity model built from
// compiled masks: histograms that account for every group, a dead count
// that is the masks' own, the healthy recursion exactly on the empty
// mask, and no model from another geometry's masks.
func TestMasksBuiltCapacityModel(t *testing.T) {
	cfgs := []dilated.Config{
		mustDilated(t, 2, 1, 3), // undilated delta corner
		mustDilated(t, 4, 1, 2),
		mustDilated(t, 2, 2, 3),
		mustDilated(t, 4, 2, 2),
		mustDilated(t, 2, 4, 2),
		mustDilated(t, 4, 4, 2),
		mustDilated(t, 2, 8, 2),
		mustDilated(t, 8, 8, 1),
	}
	for _, cfg := range cfgs {
		empty, err := dilatedsim.Compile(cfg, faults.Set{})
		if err != nil {
			t.Fatal(err)
		}
		deg, err := cfg.CompileFaults(empty)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
			if got, want := deg.PA(r), cfg.PA(r); got != want {
				t.Errorf("%v r=%g: empty-mask PA %.17g != healthy %.17g", cfg, r, got, want)
			}
		}
		rng := xrand.New(uint64(cfg.B*100 + cfg.D*10 + cfg.L))
		for _, f := range []float64{0.05, 0.2, 0.5, 0.9, 1} {
			m, err := dilatedsim.Compile(cfg, dilatedsim.SubWires(cfg).Bernoulli(f, rng))
			if err != nil {
				t.Fatal(err)
			}
			deg, err := cfg.CompileFaults(m)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := deg.DeadSubWires(), float64(m.DeadPorts()); got != want {
				t.Errorf("%v f=%g: %g dead sub-wires, masks have %g dead ports", cfg, f, got, want)
			}
			for bd := 1; bd <= cfg.L; bd++ {
				sum := 0.0
				for _, w := range deg.Weights(bd) {
					sum += w
				}
				if sum != float64(cfg.Ports()) {
					t.Errorf("%v f=%g boundary %d: weights sum to %g, want %d groups", cfg, f, bd, sum, cfg.Ports())
				}
			}
		}
	}
	other, err := dilatedsim.Compile(cfgs[1], faults.Set{})
	if err != nil {
		t.Fatal(err)
	}
	ecfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	edn := faults.MustCompile(ecfg, faults.Set{})
	for _, m := range []*faults.Masks{other, edn} {
		if _, err := cfgs[0].CompileFaults(m); err == nil {
			t.Errorf("%v accepted masks compiled for %v", cfgs[0], m.Label())
		}
	}
}

func TestExpectedDegradedRejectsBadFractions(t *testing.T) {
	cfg := mustDilated(t, 2, 2, 3)
	for _, f := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		if deg, err := cfg.ExpectedDegraded(f); err == nil {
			t.Errorf("fraction %g: no error, PA(1) = %g", f, deg.PA(1))
		}
	}
}
