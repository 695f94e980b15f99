package simulate

import (
	"math"
	"testing"

	"edn/internal/analytic"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/queuesim"
)

// At d=1 the dilated delta and the square EDN(b,b,1,l) are the same
// wiring driven by equivalent engines, so the permutation drain — a
// fully closed-loop workload — must agree bit-for-bit: same cycle
// count, same latency distribution, at every depth.
func TestDilatedDrainBitEqualAtD1(t *testing.T) {
	dcfg, err := dilated.New(2, 1, 3) // 8 ports, undilated
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dcfg.EquivalentEDN()
	if err != nil {
		t.Fatal(err)
	}
	const q = 6
	for _, depth := range []int{0, 2, queuesim.Unbounded} {
		for seed := uint64(1); seed <= 3; seed++ {
			qres, err := DrainPermutations(EDN{Config: cfg, Queue: queuesim.Options{Depth: depth}}, q, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			dres, err := DrainPermutations(Dilated{Config: dcfg, Queue: dilatedsim.Options{Depth: depth}}, q, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if qres.Cycles != dres.Cycles {
				t.Errorf("depth %d seed %d: EDN drained in %d cycles, dilated in %d",
					depth, seed, qres.Cycles, dres.Cycles)
			}
			qh, dh := qres.Histogram, dres.Histogram
			if qh.N() != dh.N() || qh.Sum() != dh.Sum() || qh.Max() != dh.Max() {
				t.Fatalf("depth %d seed %d: histograms diverge (N %d vs %d, sum %g vs %g)",
					depth, seed, qh.N(), dh.N(), qh.Sum(), dh.Sum())
			}
			for k := 0; k < qh.Buckets(); k++ {
				if qh.Count(k) != dh.Count(k) {
					t.Fatalf("depth %d seed %d: bucket %d diverges (%d vs %d)",
						depth, seed, k, qh.Count(k), dh.Count(k))
				}
			}
		}
	}
}

// The depth-0 Backpressure drain of a d=1 dilated delta lives in the
// regime ExpectedPermutationTime models, with the same systematic
// underestimate the EDN-side cross-check documents (blocked messages
// retry the same destination; the model assumes fresh re-addressing).
func TestDilatedDrainMatchesSection51ModelAtD1(t *testing.T) {
	dcfg, err := dilated.New(4, 1, 2) // 16 ports
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dcfg.EquivalentEDN()
	if err != nil {
		t.Fatal(err)
	}
	const q = 8
	model, err := analytic.ExpectedPermutationTime(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := DrainPermutations(Dilated{Config: dcfg, Queue: dilatedsim.Options{Depth: 0}}, q, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Histogram.N() != int64(q*dcfg.Ports()) {
			t.Fatalf("seed %d: delivered %d packets, want %d", seed, res.Histogram.N(), q*dcfg.Ports())
		}
		x := float64(res.Cycles)
		sum += x
		sumsq += x * x
	}
	mean := sum / seeds
	variance := (sumsq - sum*sum/seeds) / (seeds - 1)
	ci95 := 1.96 * math.Sqrt(variance/seeds)
	lo, hi := model.Cycles()-ci95, 1.5*model.Cycles()+ci95
	if mean < lo || mean > hi {
		t.Errorf("dilated drain mean %.1f cycles outside [%.1f, %.1f] around model %.1f",
			mean, lo, hi, model.Cycles())
	}
}

func TestDilatedDrainValidation(t *testing.T) {
	dcfg, err := dilated.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainPermutations(Dilated{Config: dcfg, Queue: dilatedsim.Options{}}, 0, Options{}); err == nil {
		t.Error("q=0 should be rejected")
	}
	if _, err := DrainPermutations(Dilated{Config: dcfg, Queue: dilatedsim.Options{Policy: dilatedsim.Drop}}, 4, Options{}); err == nil {
		t.Error("drop policy should be rejected for a drain")
	}
	if res, err := DrainPermutations(Dilated{Config: dcfg, Queue: dilatedsim.Options{Depth: 2}}, 2, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	} else if res.Network() != dcfg.String() {
		t.Errorf("Network() = %q, want %q", res.Network(), dcfg.String())
	}
}
