// Package ringbuf holds the FIFO store and the packed packet
// representation of the packet engine (internal/queuesim, which runs
// the EDN and dilated-delta fabrics alike), of the anatomy collector's
// queue mirrors and of the closed loop's source backlogs. Keeping the
// storage layout and the packing in one place means "same measured
// packet" is true by construction when the two fabrics are compared
// under identical traffic.
//
// A Rings value is a fixed set of numbered FIFOs. Each FIFO's state is
// its head position and its packet count, 8 bytes in one dense array;
// its slots sit in one shared arena at a power-of-two stride, so
// indexing is a shift and a mask and a store whose FIFOs stay within
// their stride never allocates after construction. A FIFO that fills
// its stride grows alone: it keeps the packets beyond it in an overflow
// ring of its own, which doubles when full, and each pop moves the
// oldest of them into the arena slot the head frees, so the head is
// always in the arena. Every other FIFO keeps only its arena slots, so
// growth never gives every FIFO the deepest one's size. A bitmap, one
// bit per FIFO, marks the FIFOs that hold a packet; Push (or Put) sets
// the bit and Pop (or Skip) clears it with a mask computed from the
// remaining count, so keeping it costs no branch, and a caller visits
// only the occupied FIFOs by walking its set bits (NonEmpty, Next).
package ringbuf

import "math/bits"

// Unbounded selects FIFOs that grow without limit when passed as the
// depth to HasSpace.
const Unbounded = -1

// fifo is one FIFO's state: its head's position and its count. The
// head runs free, wrapping at 2^32 (a multiple of every stride), and is
// masked by the stride when a slot is addressed.
type fifo struct {
	head uint32
	n    int32
}

// Rings is a set of FIFOs of packed packets, numbered 0..Count()-1. The
// zero value holds no FIFO; build one with NewRings.
type Rings struct {
	st    []fifo
	slot  []uint64 // arena: FIFO i's slots are [i<<shift, (i+1)<<shift)
	shift uint
	mask  uint32   // arena stride - 1
	full  []uint64 // bit i set iff FIFO i holds a packet

	// over[i] is FIFO i's overflow ring: the packets it holds beyond its
	// arena stride, each at its position less the stride, masked by the
	// ring's power-of-two length. over is nil until a FIFO overflows.
	over [][]uint64
}

// NewRings returns count empty FIFOs whose arena slots hold stride
// packets each, stride rounded up to a power of two (at least 1).
func NewRings(count, stride int) Rings {
	shift := uint(0)
	for 1<<shift < stride {
		shift++
	}
	return Rings{
		st:    make([]fifo, count),
		slot:  make([]uint64, count<<shift),
		shift: shift,
		mask:  1<<shift - 1,
		full:  make([]uint64, Words(count)),
	}
}

// Words returns the number of 64-bit words of a bitmap over count
// FIFOs.
func Words(count int) int { return (count + 63) >> 6 }

// Count returns the number of FIFOs in the set.
func (r *Rings) Count() int { return len(r.st) }

// NonEmpty returns the occupancy bitmap: bit i&63 of word i>>6 is set
// iff FIFO i holds a packet. It is the store's own state, valid until
// the next Push or Pop; callers only read it.
func (r *Rings) NonEmpty() []uint64 { return r.full }

// Len returns the number of packets FIFO i holds.
func (r *Rings) Len(i int) int { return int(r.st[i].n) }

// HasSpace reports whether FIFO i can accept a packet under the given
// depth (Unbounded always can).
func (r *Rings) HasSpace(i, depth int) bool {
	return depth == Unbounded || int(r.st[i].n) < depth
}

// Peek returns FIFO i's head packet without removing it. The caller has
// already checked that the FIFO is not empty.
func (r *Rings) Peek(i int) uint64 {
	return r.slot[i<<(r.shift&63)|int(r.st[i].head&r.mask)]
}

// At returns the k-th packet of FIFO i counting from its head, for
// 0 <= k < Len(i).
func (r *Rings) At(i, k int) uint64 {
	h := r.st[i].head + uint32(k)
	if k > int(r.mask) {
		q := r.over[i]
		return q[int(h-r.mask-1)&(len(q)-1)]
	}
	return r.slot[i<<(r.shift&63)|int(h&r.mask)]
}

// Pop removes and returns FIFO i's head packet; the caller has already
// checked that the FIFO is not empty.
func (r *Rings) Pop(i int) uint64 {
	p := r.Peek(i)
	r.Skip(i)
	return p
}

// Skip removes FIFO i's head packet, which the caller has read with
// Peek; the oldest overflowing packet, if any, takes the arena slot it
// frees. The FIFO's occupancy bit is cleared exactly when this empties
// it, by a mask rather than a branch.
func (r *Rings) Skip(i int) {
	s := &r.st[i]
	s.n--
	if uint32(s.n) > r.mask {
		q := r.over[i]
		r.slot[i<<(r.shift&63)|int(s.head&r.mask)] = q[int(s.head)&(len(q)-1)]
	}
	s.head++
	r.full[i>>6] &^= uint64(uint32(s.n-1)>>31) << (i & 63)
}

// Push appends a packet to FIFO i; the caller has already checked
// HasSpace. Past its arena stride a FIFO stores into its own overflow
// ring, addressed by position like the arena, which doubles when full:
// appending the ring to itself leaves every packet at its new index.
func (r *Rings) Push(i int, p uint64) {
	s := &r.st[i]
	if uint32(s.n) <= r.mask {
		r.Put(i, p)
		return
	}
	if r.over == nil {
		r.over = make([][]uint64, len(r.st))
	}
	q := r.over[i]
	if int(s.n-int32(r.mask)-1) == len(q) {
		q = append(q, q...)
		if len(q) == 0 {
			q = make([]uint64, 1)
		}
		r.over[i] = q
	}
	q[int(s.head+uint32(s.n)-r.mask-1)&(len(q)-1)] = p
	s.n++
	r.full[i>>6] |= 1 << (i & 63)
}

// Put is Push into a FIFO that holds fewer packets than its arena
// stride, as every FIFO of a store whose depth bound never exceeds its
// stride does. Unlike Push, it inlines into the caller's loop.
func (r *Rings) Put(i int, p uint64) {
	s := &r.st[i]
	r.slot[i<<(r.shift&63)|int((s.head+uint32(s.n))&r.mask)] = p
	s.n++
	r.full[i>>6] |= 1 << (i & 63)
}

// Next returns the smallest index f in [pos, hi) whose bit is set in
// words and clear in skip, or hi when there is none: the walk over a
// store's occupied FIFOs (words = NonEmpty) that leaves out a set of
// FIFOs over the same numbering (skip, nil for none). It reads whole
// 64-bit words, so a run of empty FIFOs costs one load per 64.
func Next(words, skip []uint64, pos, hi int) int {
	for w := pos >> 6; w<<6 < hi; w++ {
		m := words[w]
		if skip != nil {
			m &^= skip[w]
		}
		if w == pos>>6 {
			m &= ^uint64(0) << (pos & 63)
		}
		if m != 0 {
			return min(w<<6|bits.TrailingZeros64(m), hi)
		}
	}
	return hi
}

// Packets are packed as inject-cycle (high 32 bits) | destination (low
// 32 bits). Destinations fit: the engines cap simulable wire counts at
// MaxInt32. Cycle counts wrap at 2^32; latency extraction uses uint32
// arithmetic, so individual latencies stay correct as long as no packet
// waits more than 2^32 cycles.

// TraceBit marks a packet carrying a flight-recorder trace record (see
// internal/probe). Every engine validates destinations against an
// output count no larger than 2^30, so bit 31 of the low word is never
// a destination bit; Dest masks it out and Latency reads only the high
// word, which is what makes a tagged packet route, queue and measure
// exactly like its untagged twin.
const TraceBit uint64 = 1 << 31

// Pack encodes a packet injected for dest at cycle now.
func Pack(dest int, now int64) uint64 {
	return uint64(uint32(now))<<32 | uint64(uint32(dest))
}

// Dest extracts the packet's destination terminal.
func Dest(p uint64) int { return int(uint32(p) &^ uint32(TraceBit)) }

// Latency returns the packet's age in cycles at time now.
func Latency(p uint64, now int64) float64 {
	return float64(uint32(now) - uint32(p>>32))
}
