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
// the measured counterpart of the mean-field PA.
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

// TestMeasuredAcceptanceMatchesDegradedPA is the PR 4 analytics
// cross-check, mirroring the EDN side's ExpectedUniformBandwidth test:
// on the empty fault set the compiled state's PA equals Config.PA
// exactly (bit-equal, the mean-field recursion collapses to the healthy
// one) and the measured low-load acceptance of the depth-1 Drop corner
// tracks it within 5%; under single sub-wire faults the measured
// degradation tracks the compiled fault state's PA within the same 5%.
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
				deg, err := cfg.CompileFaults(masks)
				if err != nil {
					t.Fatal(err)
				}
				if tc.set.IsZero() {
					if got, want := deg.PA(load), cfg.PA(load); got != want {
						t.Fatalf("empty fault state PA %.12f != Config.PA %.12f", got, want)
					}
				}
				measured := measureAcceptance(t, cfg, masks, load, cycles)
				expected := deg.PA(load)
				if rel := math.Abs(measured-expected) / expected; rel > tol {
					t.Errorf("measured acceptance %.4f vs analytic %.4f (%.1f%% off)", measured, expected, 100*rel)
				}
			})
		}
	}
}

// TestMeasuredTracksExpectedDilatedDegraded closes the loop with the
// smooth curve the sweeps plot: a Bernoulli sub-wire sample at fraction
// f, measured at low load, lands within 10% of the Binomial-expectation
// state ExpectedDegraded(f) — a looser bound than the compiled-sample
// one because the expectation also averages over the sampling noise of
// the draw itself.
func TestMeasuredTracksExpectedDilatedDegraded(t *testing.T) {
	cfg := dilatedCfg(t, 4, 2, 2)
	const (
		load   = 0.3
		f      = 0.1
		cycles = 6000
	)
	masks := mustCompile(t, cfg, SubWires(cfg).Bernoulli(f, xrand.New(77)))
	measured := measureAcceptance(t, cfg, masks, load, cycles)
	deg, err := cfg.ExpectedDegraded(f)
	if err != nil {
		t.Fatal(err)
	}
	expected := deg.PA(load)
	if rel := math.Abs(measured-expected) / expected; rel > 0.10 {
		t.Errorf("measured acceptance %.4f vs ExpectedDegraded(%.2f) %.4f (%.1f%% off)", measured, f, expected, 100*rel)
	}
}
