package dilatedsim

import (
	"fmt"
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// measureAcceptance runs uniform traffic at rate r through the
// memoryless-like corner (depth-1 Drop) and returns delivered/offered —
// the measured counterpart of expectedPA.
func measureAcceptance(t *testing.T, cfg dilated.Config, m *Masks, r float64, cycles int) float64 {
	t.Helper()
	net, err := New(cfg, Options{Depth: 1, Policy: Drop, Faults: m})
	if err != nil {
		t.Fatal(err)
	}
	gen := traffic.Uniform{Rate: r, Rng: xrand.New(20240)}
	dest := make([]int, cfg.Ports())
	for c := 0; c < cycles; c++ {
		gen.GenerateInto(dest, cfg.Ports())
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	tot := net.Totals()
	if tot.Injected == 0 {
		t.Fatal("no traffic offered")
	}
	// Exclude the pipeline's still-queued survivors from the offered
	// count: they have not been accepted or refused yet.
	offered := tot.Injected - net.Queued()
	return float64(tot.Delivered) / float64(offered)
}

// expectedPA is the per-wire model's probability of acceptance of the
// masked dilated fabric at rate r > 0: faults.ExpectedUniformBandwidth,
// the one analytic model of both fabrics, over the offered requests.
func expectedPA(cfg dilated.Config, m *Masks, r float64) float64 {
	return faults.ExpectedUniformBandwidth(m, r) / (r * float64(cfg.Ports()))
}

// TestExpectedBandwidthMatchesDilatedClosedForm is the model's oracle
// on this fabric: over the empty mask the descriptor walk reproduces
// Config.PA's Section 3.2 recursion (undilated, 8-wire and deep
// configurations included), and a boundary whose every sub-wire is dead
// severs the network.
func TestExpectedBandwidthMatchesDilatedClosedForm(t *testing.T) {
	for _, g := range []struct{ b, d, l int }{
		{4, 1, 3}, {2, 1, 3}, {2, 2, 3}, {4, 2, 2}, {2, 4, 4},
		{4, 4, 2}, {2, 8, 5}, {8, 8, 1}, {16, 4, 2},
	} {
		cfg := dilatedCfg(t, g.b, g.d, g.l)
		empty := mustCompile(t, cfg, faults.Set{})
		for _, r := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
			got, want := faults.ExpectedUniformBandwidth(empty, r), cfg.PA(r)*r*float64(cfg.Ports())
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("%v r=%g: empty-mask bandwidth %.15g != Config.PA bandwidth %.15g", cfg, r, got, want)
			}
		}
		for bd := 1; bd <= cfg.L; bd++ {
			var set faults.Set
			run := SubWires(cfg)[bd-1]
			for i := 0; i < run.N; i++ {
				run.Append(&set, i)
			}
			if got := faults.ExpectedUniformBandwidth(mustCompile(t, cfg, set), 1); got != 0 {
				t.Errorf("%v boundary %d dead: expected bandwidth %g, want 0", cfg, bd, got)
			}
		}
	}
}

// TestMeasuredAcceptanceMatchesDegradedPA is the analytics cross-check,
// mirroring the EDN side's ExpectedUniformBandwidth test: the measured
// low-load acceptance of the depth-1 Drop corner tracks the per-wire
// model within 5%, healthy and under single sub-wire faults.
func TestMeasuredAcceptanceMatchesDegradedPA(t *testing.T) {
	const (
		load   = 0.3
		cycles = 6000
		tol    = 0.05
	)
	geometries := []struct{ b, d, l int }{
		{2, 2, 3},
		{4, 2, 2},
		{4, 4, 2},
	}
	for _, g := range geometries {
		cfg := dilatedCfg(t, g.b, g.d, g.l)
		singles := []struct {
			name string
			set  faults.Set
		}{
			{"none", faults.Set{}},
			{"boundary1", faults.Set{Ports: []faults.PortID{subWire(cfg, 1, 1, 0)}}},
			{"interior", faults.Set{Ports: []faults.PortID{subWire(cfg, 2, 3, 1)}}},
			{"final-group", faults.Set{Ports: []faults.PortID{subWire(cfg, g.l, 0, g.d-1)}}},
		}
		for _, tc := range singles {
			t.Run(fmt.Sprintf("%v/%s", cfg, tc.name), func(t *testing.T) {
				masks := mustCompile(t, cfg, tc.set)
				measured := measureAcceptance(t, cfg, masks, load, cycles)
				expected := expectedPA(cfg, masks, load)
				if rel := math.Abs(measured-expected) / expected; rel > tol {
					t.Errorf("measured acceptance %.4f vs analytic %.4f (%.1f%% off)", measured, expected, 100*rel)
				}
			})
		}
	}
}

// TestMeasuredTracksExpectedDilatedDegraded closes the loop on a
// sampled fault set, the input the sweeps' expected column sees: a
// Bernoulli sub-wire sample at fraction f, measured at low load, lands
// within 10% of the per-wire model on the same sample.
func TestMeasuredTracksExpectedDilatedDegraded(t *testing.T) {
	cfg := dilatedCfg(t, 4, 2, 2)
	const (
		load   = 0.3
		f      = 0.1
		cycles = 6000
	)
	masks := mustCompile(t, cfg, SubWires(cfg).Bernoulli(f, xrand.New(77)))
	measured := measureAcceptance(t, cfg, masks, load, cycles)
	expected := expectedPA(cfg, masks, load)
	if rel := math.Abs(measured-expected) / expected; rel > 0.10 {
		t.Errorf("measured acceptance %.4f vs per-wire model at f=%.2f %.4f (%.1f%% off)", measured, f, expected, 100*rel)
	}
}
