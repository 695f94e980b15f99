// Package ringbuf holds the per-wire FIFO primitive and the packed
// packet representation of the packet engine (internal/queuesim, which
// runs the EDN and dilated-delta fabrics alike). The engine attaches one
// Ring to every stage-input wire and advances packets one hop per
// cycle; keeping the storage layout and the packing in one place means
// "same measured packet" is true by construction when the two fabrics
// are compared under identical traffic.
package ringbuf

// Unbounded selects rings that grow without limit when passed as the
// depth to HasSpace.
const Unbounded = -1

// Ring is one per-wire FIFO of packed packets. Buffers are power-of-two
// sized so indexing is a mask; bounded networks preallocate every
// buffer at construction (typically carving slots out of one flat
// backing array so neighbors share cache lines), unbounded ones grow by
// doubling on demand. The fields are exported so the owning engine can
// wire up preallocated backing storage; the hot-path accessors are the
// methods.
type Ring struct {
	Buf  []uint64
	Head int32
	N    int32
}

// Peek returns the head packet without removing it. The caller has
// already checked N > 0.
func (r *Ring) Peek() uint64 { return r.Buf[r.Head] }

// Pop removes and returns the head packet.
func (r *Ring) Pop() uint64 {
	p := r.Buf[r.Head]
	r.Head = (r.Head + 1) & int32(len(r.Buf)-1)
	r.N--
	return p
}

// HasSpace reports whether the ring can accept a packet under the given
// depth (Unbounded always can).
func (r *Ring) HasSpace(depth int) bool {
	return depth == Unbounded || int(r.N) < depth
}

// Push appends a packet; the caller has already checked HasSpace.
func (r *Ring) Push(p uint64) {
	if int(r.N) == len(r.Buf) {
		r.grow()
	}
	r.Buf[(int(r.Head)+int(r.N))&(len(r.Buf)-1)] = p
	r.N++
}

func (r *Ring) grow() {
	nb := make([]uint64, max(4, 2*len(r.Buf)))
	for i := 0; i < int(r.N); i++ {
		nb[i] = r.Buf[(int(r.Head)+i)&(len(r.Buf)-1)]
	}
	r.Buf = nb
	r.Head = 0
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
