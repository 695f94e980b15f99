package simulate

import (
	"math"
	"testing"

	"edn/internal/analytic"
	"edn/internal/queuesim"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// TestMeasuredStageRatesTrackRecursion validates the Theorem 3 stage
// recursion at every boundary, not just the final PA: measured survivor
// rates must sit within a few percent of r_{i+1} = E(r_i)/c (one-sided:
// the model is optimistic at every stage after the first).
func TestMeasuredStageRatesTrackRecursion(t *testing.T) {
	for _, dims := range [][4]int{{16, 4, 4, 2}, {64, 16, 4, 2}, {8, 4, 2, 3}} {
		cfg := mustCfg(t, dims[0], dims[1], dims[2], dims[3])
		res, err := MeasureStageRates(cfg, 1, Options{Cycles: 400, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.StageRates(cfg, 1)
		if len(res.Measured) != len(want) {
			t.Fatalf("%v: %d measured boundaries, want %d", cfg, len(res.Measured), len(want))
		}
		if math.Abs(res.Measured[0]-1) > 0.01 {
			t.Errorf("%v: offered rate %.4f, want 1", cfg, res.Measured[0])
		}
		for i := 1; i < len(want); i++ {
			if res.Measured[i] > want[i]*1.01 {
				t.Errorf("%v stage %d: measured %.4f above model %.4f", cfg, i, res.Measured[i], want[i])
			}
			if res.Measured[i] < want[i]*0.90 {
				t.Errorf("%v stage %d: measured %.4f more than 10%% below model %.4f", cfg, i, res.Measured[i], want[i])
			}
		}
	}
}

func TestMeasureStageRatesZeroLoad(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	res, err := MeasureStageRates(cfg, 0, Options{Cycles: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Measured {
		if m != 0 {
			t.Fatalf("boundary %d rate %g at zero load", i, m)
		}
	}
}

// TestMeasureStageRatesHonorsWarmup: the stage rates are
// MeasureUniformPA's measurement window, warmup excluded — the offered
// count its OfferedRate reports, less its per-stage drops.
func TestMeasureStageRatesHonorsWarmup(t *testing.T) {
	cfg := mustCfg(t, 4, 2, 2, 2)
	opts := Options{Cycles: 100, Warmup: 50, Seed: 2}
	res, err := MeasureStageRates(cfg, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := MeasureUniformPA(cfg, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	cycles := float64(opts.Cycles)
	alive := math.Round(pa.OfferedRate * cycles * float64(cfg.Inputs()))
	for i := range res.Measured {
		if i > 0 {
			alive -= float64(pa.BlockedPerStage[i-1])
		}
		if want := alive / (float64(cfg.WiresAfterStage(i)) * cycles); res.Measured[i] != want {
			t.Errorf("boundary %d: rate %g, MeasureUniformPA's window gives %g", i, res.Measured[i], want)
		}
	}
}

// TestMultipassIdentityOnMasParGeometry: the identity permutation on
// EDN(64,16,4,2) delivers exactly 64 messages per pass (each first-stage
// switch drains one capacity-4 bucket), so it needs exactly 16 passes.
func TestMultipassIdentityOnMasParGeometry(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2)
	dest := traffic.Identity(cfg.Inputs()).Dest
	res, err := RouteMultipass(cfg, dest, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 16 {
		t.Fatalf("identity took %d passes, want 16 (deliveries %v)", res.Passes, res.Delivered)
	}
	for p, d := range res.Delivered {
		if d != 64 {
			t.Fatalf("pass %d delivered %d, want 64", p, d)
		}
	}
}

// TestMultipassRandomPermutationFast: random permutations on the same
// geometry complete within a handful of passes — the multipath benefit.
func TestMultipassRandomPermutationFast(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2)
	rng := xrand.New(23)
	for trial := 0; trial < 5; trial++ {
		res, err := RouteMultipass(cfg, rng.Perm(cfg.Inputs()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes > 8 {
			t.Fatalf("trial %d: random permutation took %d passes", trial, res.Passes)
		}
		total := 0
		for _, d := range res.Delivered {
			total += d
		}
		if total != cfg.Inputs() {
			t.Fatalf("trial %d: delivered %d of %d", trial, total, cfg.Inputs())
		}
	}
}

// TestMultipathBeatsDeltaOnPasses: at the same port count and switch
// width, the EDN completes random permutations in fewer passes than the
// pure delta network — the paper's core selling point, expressed in
// wall-clock terms.
func TestMultipathBeatsDeltaOnPasses(t *testing.T) {
	ednCfg := mustCfg(t, 16, 4, 4, 3)    // 256 ports, c=4
	deltaCfg := mustCfg(t, 16, 16, 1, 2) // 256 ports, c=1
	if ednCfg.Inputs() != deltaCfg.Inputs() {
		t.Fatal("geometry mismatch")
	}
	rng := xrand.New(29)
	ednPasses, deltaPasses := 0, 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(ednCfg.Inputs())
		er, err := RouteMultipass(ednCfg, perm, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := RouteMultipass(deltaCfg, perm, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ednPasses += er.Passes
		deltaPasses += dr.Passes
	}
	if ednPasses >= deltaPasses {
		t.Errorf("EDN total passes %d should beat delta %d", ednPasses, deltaPasses)
	}
}

func TestMultipassValidation(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	if _, err := RouteMultipass(cfg, make([]int, 3), nil, 0); err == nil {
		t.Error("expected length error")
	}
	// All idle completes in zero passes.
	idle := make([]int, cfg.Inputs())
	for i := range idle {
		idle[i] = queuesim.NoRequest
	}
	res, err := RouteMultipass(cfg, idle, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 0 {
		t.Errorf("idle vector took %d passes", res.Passes)
	}
}

// TestMultipassFanInSerializes: total fan-in to one output delivers
// exactly one message per pass.
func TestMultipassFanInSerializes(t *testing.T) {
	cfg := mustCfg(t, 8, 4, 2, 2) // 32 ports
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = 0
	}
	res, err := RouteMultipass(cfg, dest, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != cfg.Inputs() {
		t.Fatalf("fan-in took %d passes, want %d", res.Passes, cfg.Inputs())
	}
}
