package ringbuf

import "testing"

func TestRingFIFOOrder(t *testing.T) {
	r := NewRings(3, 4)
	for i := 0; i < 100; i++ {
		r.Push(1, uint64(i))
	}
	if r.Len(1) != 100 || r.Len(0) != 0 || r.Len(2) != 0 {
		t.Fatalf("lengths %d %d %d after 100 pushes to FIFO 1", r.Len(0), r.Len(1), r.Len(2))
	}
	for i := 0; i < 100; i++ {
		if got := r.Peek(1); got != uint64(i) {
			t.Fatalf("peek %d, want %d", got, i)
		}
		if got := r.Pop(1); got != uint64(i) {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if r.Len(1) != 0 {
		t.Fatalf("Len = %d after draining", r.Len(1))
	}
}

func TestRingWrapsPreallocatedBuffer(t *testing.T) {
	r := NewRings(2, 4)
	// Interleave pushes and pops so the head walks around the slots.
	next, want := uint64(0), uint64(0)
	for i := 0; i < 37; i++ {
		if r.HasSpace(1, 4) {
			r.Push(1, next)
			next++
		}
		if r.Len(1) > 2 {
			if got := r.Pop(1); got != want {
				t.Fatalf("pop %d, want %d", got, want)
			}
			want++
		}
	}
	if r.over != nil {
		t.Fatal("bounded use overflowed the arena")
	}
}

func TestHasSpace(t *testing.T) {
	r := NewRings(1, 4)
	for i := 0; i < 3; i++ {
		if !r.HasSpace(0, 3) {
			t.Fatalf("FIFO with %d packets rejects depth 3", r.Len(0))
		}
		r.Push(0, uint64(i))
	}
	if r.HasSpace(0, 3) {
		t.Fatal("full FIFO accepts under bounded depth")
	}
	if !r.HasSpace(0, Unbounded) {
		t.Fatal("unbounded depth refused space")
	}
}

func TestPackRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		dest int
		at   int64
		now  int64
	}{
		{0, 1, 1},
		{12345, 7, 900},
		{1<<31 - 1, 1 << 30, 1<<30 + 17},
	} {
		p := Pack(tc.dest, tc.at)
		if got := Dest(p); got != tc.dest {
			t.Errorf("Dest(Pack(%d, %d)) = %d", tc.dest, tc.at, got)
		}
		if got := Latency(p, tc.now); got != float64(tc.now-tc.at) {
			t.Errorf("Latency(Pack(%d, %d), %d) = %g, want %d", tc.dest, tc.at, tc.now, got, tc.now-tc.at)
		}
	}
}

// TestRingGrowthPreservesOrder exercises per-FIFO growth: a burst far
// deeper than the arena stride must be held and fully recovered in FIFO
// order, including overflow with a head sheared into the middle of the
// slots by interleaved pops, while a neighbouring FIFO keeps its own
// packets in its arena slots alone.
func TestRingGrowthPreservesOrder(t *testing.T) {
	r := NewRings(2, 4)
	r.Push(1, 7)
	const k = 100
	for i := 0; i < k; i++ {
		if !r.HasSpace(0, Unbounded) {
			t.Fatal("unbounded FIFO refused a push")
		}
		r.Push(0, Pack(i, int64(i)))
	}
	// Interleave pops and pushes to shear the head across the slots.
	for i := 0; i < 40; i++ {
		if got := Dest(r.Pop(0)); got != i {
			t.Fatalf("pop %d: got dest %d", i, got)
		}
		r.Push(0, Pack(k+i, 0))
	}
	for i := 40; i < k+40; i++ {
		if got := Dest(r.Pop(0)); got != i {
			t.Fatalf("pop %d: got dest %d", i, got)
		}
	}
	if r.Len(0) != 0 {
		t.Fatalf("FIFO not empty: %d", r.Len(0))
	}
	if r.Len(1) != 1 || r.Peek(1) != 7 || r.over[1] != nil {
		t.Fatalf("neighbour disturbed: len %d, head %d, overflow %v", r.Len(1), r.Peek(1), r.over[1])
	}
}

// TestSpanningWalk checks Next over a bitmap whose runs straddle word
// boundaries, with and without a skip mask.
func TestSpanningWalk(t *testing.T) {
	r := NewRings(200, 1)
	set := []int{0, 5, 63, 64, 127, 128, 130, 199}
	for _, i := range set {
		r.Push(i, uint64(i))
	}
	skip := make([]uint64, Words(200))
	skip[128>>6] |= 1 << (128 & 63)
	var got []int
	for f := Next(r.NonEmpty(), skip, 1, 199); f < 199; f = Next(r.NonEmpty(), skip, f+1, 199) {
		got = append(got, f)
	}
	want := []int{5, 63, 64, 127, 130}
	if len(got) != len(want) {
		t.Fatalf("walk %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk %v, want %v", got, want)
		}
	}
	if f := Next(r.NonEmpty(), nil, 131, 200); f != 199 {
		t.Fatalf("Next from 131 = %d, want 199", f)
	}
}

// FuzzRings drives random Push (Put below the stride), Pop (or Peek and
// Skip), Len and HasSpace over a handful of FIFOs, at bounded and
// growing strides, and checks after every operation each FIFO's
// contents and length and the occupancy bitmap against a reference that
// keeps every FIFO as a plain slice.
func FuzzRings(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), uint8(4), uint8(4), []byte{1, 1, 1, 1, 1, 129, 129, 2, 2, 130})
	f.Add(uint8(70), uint8(2), uint8(255), []byte{69, 69, 69, 69, 197, 64, 63, 191, 65, 0, 128})
	f.Add(uint8(9), uint8(1), uint8(0), []byte{8, 8, 8, 8, 8, 8, 8, 8, 136, 8, 136, 136})
	f.Fuzz(func(t *testing.T, count, stride, depth uint8, ops []byte) {
		n := int(count%80) + 1
		// depth 0 stands for Unbounded: every FIFO may outgrow its stride.
		d := int(depth % 9)
		if d == 0 {
			d = Unbounded
		}
		r := NewRings(n, int(stride%9))
		ref := make([][]uint64, n)
		next := uint64(1)
		for k, op := range ops {
			i := int(op&0x7f) % n
			if op&0x80 == 0 {
				if got, want := r.HasSpace(i, d), d == Unbounded || len(ref[i]) < d; got != want {
					t.Fatalf("op %d: HasSpace(%d) = %v with %d queued, depth %d", k, i, got, len(ref[i]), d)
				}
				if r.HasSpace(i, d) {
					if k%2 == 1 && len(ref[i]) < 1<<r.shift {
						r.Put(i, next)
					} else {
						r.Push(i, next)
					}
					ref[i] = append(ref[i], next)
					next++
				}
			} else if len(ref[i]) > 0 {
				got := r.Peek(i)
				if k%2 == 1 {
					r.Skip(i)
				} else if p := r.Pop(i); p != got {
					t.Fatalf("op %d: Pop(%d) = %d after Peek read %d", k, i, p, got)
				}
				if got != ref[i][0] {
					t.Fatalf("op %d: FIFO %d head %d, want %d", k, i, got, ref[i][0])
				}
				ref[i] = ref[i][1:]
			}
			for j, q := range ref {
				if r.Len(j) != len(q) {
					t.Fatalf("op %d: Len(%d) = %d, want %d", k, j, r.Len(j), len(q))
				}
				for x, p := range q {
					if got := r.At(j, x); got != p {
						t.Fatalf("op %d: FIFO %d slot %d = %d, want %d", k, j, x, got, p)
					}
				}
				if len(q) > 0 && r.Peek(j) != q[0] {
					t.Fatalf("op %d: Peek(%d) = %d, want %d", k, j, r.Peek(j), q[0])
				}
				if bit := r.NonEmpty()[j>>6]>>(j&63)&1 == 1; bit != (len(q) > 0) {
					t.Fatalf("op %d: FIFO %d occupancy bit %v with %d queued", k, j, bit, len(q))
				}
			}
			for w, word := range r.NonEmpty() {
				if hi := n - w<<6; hi < 64 && word>>hi != 0 {
					t.Fatalf("op %d: bitmap word %d has bits past FIFO %d: %#x", k, w, n-1, word)
				}
			}
		}
	})
}
