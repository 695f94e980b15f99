package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(7)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", v, c, want)
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Errorf("Bool(0.25) hit %d/10000", hits)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(5)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Perm first element %d count %d deviates from %g", v, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("parent and child agreed on %d/100 draws", same)
	}
}

// TestMul64AgainstBig checks the 128-bit product Intn draws with,
// bits.Mul64, and the hand-rolled mul64 it replaced against an
// independent long multiplication.
func TestMul64AgainstBig(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {math.MaxUint64, math.MaxUint64},
		{0xdeadbeefcafebabe, 0x123456789abcdef0},
		{1 << 63, 2}, {math.MaxUint64, 1},
	}
	r := New(77)
	for i := 0; i < 1000; i++ {
		cases = append(cases, [2]uint64{r.Uint64(), r.Uint64() >> (i % 64)})
	}
	for _, c := range cases {
		wantHi, wantLo := refMul(c[0], c[1])
		if hi, lo := bits.Mul64(c[0], c[1]); hi != wantHi || lo != wantLo {
			t.Errorf("bits.Mul64(%#x, %#x) = (%#x,%#x), want (%#x,%#x)", c[0], c[1], hi, lo, wantHi, wantLo)
		}
		if hi, lo := mul64(c[0], c[1]); hi != wantHi || lo != wantLo {
			t.Errorf("mul64(%#x, %#x) = (%#x,%#x), want (%#x,%#x)", c[0], c[1], hi, lo, wantHi, wantLo)
		}
	}
}

// mul64 is the hand-rolled 128-bit product Intn used before bits.Mul64,
// kept as an oracle.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// intnMul64 is Intn as it was before bits.Mul64.
func intnMul64(r *Rand, n int) int {
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// TestIntnMatchesMul64 pins Intn, value and stream position, to the
// mul64 draw it replaced, on random bounds up to 2⁶³-1; bounds near 2⁶²
// and above make the rejection loop run often.
func TestIntnMatchesMul64(t *testing.T) {
	bounds := New(5)
	for i := 0; i < 2000; i++ {
		n := int(bounds.Uint64() >> (1 + i%63))
		if n == 0 {
			n = 1
		}
		if i%4 == 0 {
			n = 1<<62 + 12345 + i
		}
		seed := bounds.Uint64()
		a, b := New(seed), New(seed)
		for k := 0; k < 8; k++ {
			if got, want := a.Intn(n), intnMul64(b, n); got != want {
				t.Fatalf("Intn(%d) seed %d draw %d = %d, want %d", n, seed, k, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Intn(%d) seed %d: stream positions differ", n, seed)
		}
	}
}

// TestPeekSkip pins the offset draw and the advance to the sequential
// stream: Peek(k) is the k-th next Uint64 and leaves the stream where
// it was, Skip(k) leaves it where k Uint64 calls would.
func TestPeekSkip(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		r := New(seed * 0x1234567)
		for k := uint64(0); k < 40; k++ {
			seq := *r
			for j := uint64(1); j <= k; j++ {
				if got, want := r.Peek(j), seq.Uint64(); got != want {
					t.Fatalf("seed %d: Peek(%d) = %#x, want %#x", seed, j, got, want)
				}
			}
			r.Skip(k)
			if got, want := r.Uint64(), seq.Uint64(); got != want {
				t.Fatalf("seed %d: after Skip(%d) drew %#x, want %#x", seed, k, got, want)
			}
		}
	}
}

// TestCoinMatchesBool pins Coin to Bool, outcome and draws taken, on
// the edge probabilities, random ones, and probabilities next to the
// 2⁻⁵³ grid Float64 compares on.
func TestCoinMatchesBool(t *testing.T) {
	ps := []float64{math.Inf(-1), -1, 0, 1e-300, 0x1p-53, 0.3, 0.5, 1 - 0x1p-53, 1, 2, math.Inf(1), math.NaN()}
	g := New(13)
	for i := 0; i < 300; i++ {
		p := g.Float64()
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
		grid := float64(g.Uint64()>>11) / (1 << 53)
		ps = append(ps, grid, math.Nextafter(grid, 0), math.Nextafter(grid, 1))
	}
	for _, p := range ps {
		c := NewCoin(p)
		for seed := uint64(1); seed <= 3; seed++ {
			a, b := New(seed), New(seed)
			for k := 0; k < 200; k++ {
				got := c.Hit(b.Peek(1)) == 1
				b.Skip(c.Draws)
				if want := a.Bool(p); got != want {
					t.Fatalf("p=%g seed %d flip %d: coin %v, Bool %v", p, seed, k, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("p=%g seed %d: coin and Bool left the stream at different draws", p, seed)
			}
		}
	}
	// Draws straddling the threshold: u>>11 = t-1 comes up, t does not.
	for _, p := range ps {
		c := NewCoin(p)
		if c.Draws == 0 || c.Threshold == 0 {
			continue
		}
		for _, x := range []uint64{c.Threshold - 1, c.Threshold} {
			u := x<<11 | 0x7ff
			if x >= 1<<53 {
				continue
			}
			want := float64(x)/(1<<53) < p
			if got := c.Hit(u) == 1; got != want {
				t.Fatalf("p=%g: draw with u>>11 = %d comes up %v, Float64 comparison %v", p, x, got, want)
			}
		}
	}
}

func refMul(a, b uint64) (hi, lo uint64) {
	const m = 1<<32 - 1
	al, ah := a&m, a>>32
	bl, bh := b&m, b>>32
	ll := al * bl
	lh := al * bh
	hl := ah * bl
	hh := ah * bh
	mid := lh + hl
	carry := uint64(0)
	if mid < lh {
		carry = 1 << 32
	}
	lo = ll + mid<<32
	if lo < ll {
		hh++
	}
	hi = hh + mid>>32 + carry
	return hi, lo
}
