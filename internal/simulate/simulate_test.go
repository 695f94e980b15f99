package simulate

import (
	"math"
	"testing"

	"edn/internal/analytic"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
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

// TestAnalyticMatchesSimulation is the central cross-validation of the
// repository: the measured probability of acceptance under iid uniform
// traffic must track Equation 4 across capacities, stage counts and
// offered rates.
//
// The closed form assumes wires are independently busy stage by stage;
// in the real (simulated) network, load clusters on the switches whose
// feeder buckets won more arbitration, and blocking is convex in load,
// so measurement sits a few percent BELOW the model (the same systematic
// optimism is documented for Patel's delta-network analysis). We assert
// a one-sided band: measured <= analytic + noise, and within 6% of it.
func TestAnalyticMatchesSimulation(t *testing.T) {
	cases := []struct {
		a, b, c, l int
		r          float64
	}{
		{16, 4, 4, 2, 1},
		{16, 4, 4, 2, 0.5},
		{8, 4, 2, 3, 1},
		{8, 2, 4, 2, 0.75},
		{8, 8, 1, 2, 1},   // delta network
		{16, 16, 1, 1, 1}, // crossbar (single stage: model is exact)
		{64, 16, 4, 2, 1}, // MasPar geometry
	}
	for _, cse := range cases {
		cfg := mustCfg(t, cse.a, cse.b, cse.c, cse.l)
		res, err := MeasureUniformPA(cfg, cse.r, Options{Cycles: 600, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.PA(cfg, cse.r)
		if res.PA > want+3*res.PACI+0.005 {
			t.Errorf("%v r=%g: measured PA %.4f exceeds analytic %.4f — model should upper-bound", cfg, cse.r, res.PA, want)
		}
		if res.PA < want*0.94 {
			t.Errorf("%v r=%g: measured PA %.4f more than 6%% below analytic %.4f", cfg, cse.r, res.PA, want)
		}
		// Single-stage crossbars have no interstage correlation: exact.
		if cfg.IsCrossbarNetwork() && math.Abs(res.PA-want) > 3*res.PACI+0.01 {
			t.Errorf("crossbar: measured %.4f vs exact %.4f", res.PA, want)
		}
	}
}

func TestMeasuredOfferedRateTracksR(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	res, err := MeasureUniformPA(cfg, 0.3, Options{Cycles: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OfferedRate-0.3) > 0.02 {
		t.Errorf("offered rate %.4f, want 0.3", res.OfferedRate)
	}
}

// TestPermutationBeatsUniform: permutation traffic has no output
// conflicts, so measured acceptance must exceed uniform traffic at r=1,
// and must beat the analytic uniform PA as well (Lemma 2 effect).
func TestPermutationBeatsUniform(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	uni, err := MeasureUniformPA(cfg, 1, Options{Cycles: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	perm, err := MeasurePermutationPA(cfg, Options{Cycles: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if perm.PA <= uni.PA {
		t.Errorf("permutation PA %.4f should beat uniform %.4f", perm.PA, uni.PA)
	}
}

// TestPermutationTailStagesLossless: under permutation traffic the
// measured per-stage blocking must be zero at the last two stages
// (Lemma 2), on every square geometry tried.
func TestPermutationTailStagesLossless(t *testing.T) {
	for _, dims := range [][4]int{{16, 4, 4, 2}, {8, 4, 2, 3}, {64, 16, 4, 2}} {
		cfg := mustCfg(t, dims[0], dims[1], dims[2], dims[3])
		res, err := MeasurePermutationPA(cfg, Options{Cycles: 50, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if res.BlockedPerStage[cfg.L-1] != 0 || res.BlockedPerStage[cfg.L] != 0 {
			t.Errorf("%v: tail-stage blocking %v", cfg, res.BlockedPerStage)
		}
	}
}

// TestArbitrationAblation: the aggregate acceptance rate is insensitive
// to the arbitration policy (the analytic model counts winners, not
// identities), while individual winners differ.
func TestArbitrationAblation(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	opts := Options{Cycles: 500, Seed: 9}

	priority, err := MeasureUniformPA(cfg, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsRR := opts
	optsRR.Factory = func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
	rr, err := MeasureUniformPA(cfg, 1, optsRR)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(123)
	optsRand := opts
	optsRand.Factory = func() switchfab.Arbiter {
		r := rng.Split()
		return switchfab.RandomArbiter{Perm: r.PermInto}
	}
	random, err := MeasureUniformPA(cfg, 1, optsRand)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]Result{{priority, rr}, {priority, random}} {
		if math.Abs(pair[0].PA-pair[1].PA) > 0.02 {
			t.Errorf("arbitration changed aggregate PA: %.4f vs %.4f", pair[0].PA, pair[1].PA)
		}
	}
}

func TestZeroRateRun(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	res, err := MeasureUniformPA(cfg, 0, Options{Cycles: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 1 || res.Bandwidth != 0 || res.OfferedRate != 0 {
		t.Errorf("zero-rate run: %+v", res)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	a, err := MeasureUniformPA(cfg, 0.8, Options{Cycles: 100, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureUniformPA(cfg, 0.8, Options{Cycles: 100, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.PA != b.PA || a.Bandwidth != b.Bandwidth {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := MeasureUniformPA(cfg, 0.8, Options{Cycles: 100, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.PA == c.PA && a.Bandwidth == c.Bandwidth {
		t.Errorf("different seeds produced identical runs")
	}
}

func TestWarmupDiscards(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	// A fixed permutation offered every cycle is deterministic, so warmup
	// must not change the measured PA — only exercise the code path.
	id := traffic.Identity(cfg.Inputs())
	a, err := MeasurePA(cfg, id, Options{Cycles: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasurePA(cfg, id, Options{Cycles: 50, Warmup: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.PA != b.PA {
		t.Errorf("warmup changed deterministic PA: %.4f vs %.4f", a.PA, b.PA)
	}
}

// TestIdentityPermutationBlocksOnMasParGeometry reproduces the Figure 5
// observation: EDN(64,16,4,2) cannot route the identity permutation in a
// single pass (every cluster's 16 messages share first-stage buckets),
// while the Corollary 2 reversed retirement order fixes it (tested via
// the routing package's compensation in the examples).
func TestIdentityPermutationBlocksOnMasParGeometry(t *testing.T) {
	cfg := mustCfg(t, 64, 16, 4, 2)
	res, err := MeasurePA(cfg, traffic.Identity(cfg.Inputs()), Options{Cycles: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PA >= 1 {
		t.Fatalf("identity should block on EDN(64,16,4,2), got PA=%.4f", res.PA)
	}
	// Exactly 1/16 of the identity survives: all 64 inputs of first-stage
	// switch s carry destination digit d_1 = s, so each switch funnels its
	// entire load into one capacity-4 bucket: 16 switches * 4 = 64 of 1024.
	if math.Abs(res.PA-1.0/16) > 1e-9 {
		t.Errorf("identity PA = %.4f, expected exactly 1/16 on this geometry", res.PA)
	}
}

// TestCoreNoRequestSentinelsAgree keeps the two packages' idle sentinels
// in sync (the engine's NoRequest is fed traffic.None vectors
// directly).
func TestCoreNoRequestSentinelsAgree(t *testing.T) {
	if queuesim.NoRequest != traffic.None {
		t.Fatalf("sentinel mismatch: queuesim %d, traffic %d", queuesim.NoRequest, traffic.None)
	}
}
