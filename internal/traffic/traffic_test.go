package traffic

import (
	"math"
	"testing"

	"edn/internal/xrand"
)

// genVec draws one request vector of p for a network of the given
// geometry into a fresh slice.
func genVec(p Pattern, inputs, outputs int) []int {
	dest := make([]int, inputs)
	p.GenerateInto(dest, outputs)
	return dest
}

func TestUniformRateAndRange(t *testing.T) {
	u := Uniform{Rate: 0.5, Rng: xrand.New(1)}
	const inputs, outputs, cycles = 256, 64, 200
	requests := 0
	counts := make([]int, outputs)
	for c := 0; c < cycles; c++ {
		dest := genVec(u, inputs, outputs)
		if len(dest) != inputs {
			t.Fatalf("len(dest) = %d, want %d", len(dest), inputs)
		}
		for _, d := range dest {
			if d == None {
				continue
			}
			if d < 0 || d >= outputs {
				t.Fatalf("destination %d out of range", d)
			}
			requests++
			counts[d]++
		}
	}
	rate := float64(requests) / float64(inputs*cycles)
	if math.Abs(rate-0.5) > 0.01 {
		t.Errorf("measured rate %g, want 0.5", rate)
	}
	want := float64(requests) / outputs
	for d, n := range counts {
		if math.Abs(float64(n)-want) > 6*math.Sqrt(want) {
			t.Errorf("output %d drew %d requests, want ~%.0f", d, n, want)
		}
	}
}

func TestUniformZeroRateAllIdle(t *testing.T) {
	u := Uniform{Rate: 0, Rng: xrand.New(2)}
	for _, d := range genVec(u, 64, 64) {
		if d != None {
			t.Fatalf("rate-0 pattern produced request %d", d)
		}
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	p := &RandomPermutation{Rng: xrand.New(3)}
	dest := genVec(p, 64, 64)
	seen := make([]bool, 64)
	for _, d := range dest {
		if d == None || seen[d] {
			t.Fatalf("not a permutation: %v", dest)
		}
		seen[d] = true
	}
}

func TestRandomPermutationRectangular(t *testing.T) {
	p := &RandomPermutation{Rng: xrand.New(4)}
	// Fewer inputs than outputs: all distinct, all in range.
	dest := genVec(p, 16, 64)
	seen := map[int]bool{}
	for _, d := range dest {
		if d == None || d < 0 || d >= 64 || seen[d] {
			t.Fatalf("bad injection: %v", dest)
		}
		seen[d] = true
	}
	// More inputs than outputs: outputs..inputs-1 idle, rest a permutation.
	dest = genVec(p, 64, 16)
	for i := 16; i < 64; i++ {
		if dest[i] != None {
			t.Fatalf("input %d should be idle, got %d", i, dest[i])
		}
	}
}

func TestPartialPermutationRate(t *testing.T) {
	p := &PartialPermutation{Rate: 0.25, Rng: xrand.New(5)}
	const n, cycles = 128, 400
	live := 0
	for c := 0; c < cycles; c++ {
		dest := genVec(p, n, n)
		seen := map[int]bool{}
		for _, d := range dest {
			if d == None {
				continue
			}
			if seen[d] {
				t.Fatal("partial permutation has a conflict")
			}
			seen[d] = true
			live++
		}
	}
	rate := float64(live) / float64(n*cycles)
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("measured rate %g, want 0.25", rate)
	}
}

func TestHotSpotConcentration(t *testing.T) {
	h := HotSpot{Rate: 1, Fraction: 0.3, Hot: 5, Rng: xrand.New(6)}
	const n, cycles = 128, 200
	hot, total := 0, 0
	for c := 0; c < cycles; c++ {
		for _, d := range genVec(h, n, n) {
			if d == None {
				continue
			}
			total++
			if d == 5 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// Hot fraction plus the uniform share that also lands on output 5.
	want := 0.3 + 0.7/float64(n)
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("hot fraction %g, want ~%g", frac, want)
	}
}

func TestFixedPatternsAreValidPermutations(t *testing.T) {
	const n = 64
	id := Identity(n)
	br, err := BitReversal(n)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := PerfectShuffle(n)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := BitComplement(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transpose(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fixed{id, br, sh, bc, tr} {
		dest := genVec(f, n, n)
		seen := make([]bool, n)
		for _, d := range dest {
			if d == None || seen[d] {
				t.Fatalf("%s is not a permutation: %v", f.Name(), dest)
			}
			seen[d] = true
		}
	}
	// Spot values.
	if id.Dest[7] != 7 {
		t.Error("identity wrong")
	}
	if br.Dest[1] != 32 { // reverse of 000001 over 6 bits
		t.Errorf("bit reversal of 1 = %d, want 32", br.Dest[1])
	}
	if sh.Dest[32] != 1 { // rotate 100000 left -> 000001
		t.Errorf("shuffle of 32 = %d, want 1", sh.Dest[32])
	}
	if bc.Dest[0] != 63 {
		t.Errorf("complement of 0 = %d, want 63", bc.Dest[0])
	}
	if tr.Dest[1] != 8 { // (row,col)=(0,1) -> (1,0) on an 8x8 grid
		t.Errorf("transpose of 1 = %d, want 8", tr.Dest[1])
	}
}

func TestFixedErrors(t *testing.T) {
	if _, err := BitReversal(48); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	if _, err := Transpose(32); err == nil {
		t.Error("expected error for odd address width")
	}
	if _, err := PerfectShuffle(0); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := BitComplement(-4); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestFixedGeneratePanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	genVec(Identity(8), 16, 16)
}

func TestPatternNames(t *testing.T) {
	names := []string{
		Uniform{Rate: 1}.Name(),
		RandomPermutation{}.Name(),
		PartialPermutation{Rate: 0.5}.Name(),
		HotSpot{Rate: 1, Fraction: 0.1}.Name(),
		Identity(4).Name(),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty pattern name %q in %v", n, names)
		}
		seen[n] = true
	}
}
