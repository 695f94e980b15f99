// Package xrand provides a small, fully deterministic pseudo-random
// number generator (SplitMix64) so that every simulation in this
// repository reproduces bit-for-bit across platforms and Go releases.
// math/rand's stream is version-dependent for some helpers; experiments
// that feed EXPERIMENTS.md must not be.
//
// SplitMix64 is a counter: the k-th next draw is a fixed mix of the
// state plus k times a constant, so a draw can be taken at a computed
// offset (Peek) and the stream advanced by any count at once (Skip).
// Together with Coin, Bool as an exact integer test, this lets a
// per-cycle kernel take every draw of a request vector without a
// data-dependent branch and still leave the stream exactly where the
// one-draw-at-a-time loop would: Bool(p) takes one draw u and is true
// iff u>>11 < ⌈p·2⁵³⌉ (no draw when p <= 0 or p >= 1; NaN takes one and
// is never true).
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a SplitMix64 generator. It is not safe for concurrent use; give
// each goroutine its own stream via Split.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds give streams
// that are effectively independent for simulation purposes.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// gamma is the SplitMix64 state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Peek returns the draw the k-th next Uint64 call would return (Peek(1)
// is the next one) without advancing the stream.
func (r *Rand) Peek(k uint64) uint64 { return mix(r.state + k*gamma) }

// Skip advances the stream by k draws, as k Uint64 calls would.
func (r *Rand) Skip(k uint64) { r.state += k * gamma }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new generator whose stream is independent of the
// parent's subsequent output.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0x6a09e667f3bcc909}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded draw with rejection, keeping
	// the distribution exactly uniform.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Coin is Bool(p) as an exact integer test, for kernels that take their
// draws at computed offsets: a flip takes Draws draws, and when it takes
// one, u, it comes up iff u>>11 < Threshold. Float64 is u>>11 over 2⁵³
// exactly, so Float64() < p is u>>11 < ⌈p·2⁵³⌉. When p <= 0 or p >= 1
// the flip takes no draw, and Threshold (0 or 2⁵³) decides it whatever
// u is; NaN takes a draw and never comes up.
type Coin struct {
	Threshold uint64
	Draws     uint64
}

// NewCoin returns the Coin of Bool(p).
func NewCoin(p float64) Coin {
	switch {
	case p <= 0:
		return Coin{}
	case p >= 1:
		return Coin{Threshold: 1 << 53}
	case math.IsNaN(p):
		return Coin{Draws: 1}
	}
	return Coin{Threshold: uint64(math.Ceil(p * (1 << 53))), Draws: 1}
}

// Hit returns 1 if a flip that drew u comes up and 0 otherwise, without
// a branch: u>>11 and Threshold both lie below 2⁶³, so their difference
// is negative exactly when u>>11 < Threshold.
func (c Coin) Hit(u uint64) uint64 { return (u>>11 - c.Threshold) >> 63 }

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p))
// without allocating. It draws exactly the same stream as Perm(len(p)),
// so the two are interchangeable in reproducible experiments.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle over n elements.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
