// Package traffic generates the request patterns used throughout the
// paper's evaluation: the uniform independent traffic of Section 3.2, the
// random permutations of Sections 3.2.1 and 5, and the structured
// permutations and hot-spot ("NUTS", after Lang & Kurisaki) patterns used
// by the extended test and benchmark suites.
//
// A pattern is a slice dest with dest[i] = destination label requested by
// input i, or None when input i is idle this cycle.
//
// The request model of Section 3.2 draws per input: a coin for a
// request, then (for the hot-spot family) a coin for the hot output,
// then a uniform output. Uniform, HotSpot and MovingHotSpot share one
// kernel, requests, and MarkovOnOff adds its state coin in front; none
// branches on a draw. Each takes an input's draws at computed offsets
// of the SplitMix64 stream (xrand's Peek), decides with integer coins
// (xrand.Coin) and selects, then advances the stream by exactly the
// number of draws the one-at-a-time loop (Bool, Bool, Intn) would have
// taken, so the stream position is the only state carried from input
// to input and every request vector is bit-identical to that loop's.
// Intn's rare rejection (probability below outputs/2⁶⁴) is left to
// Intn itself.
package traffic

import (
	"fmt"
	"math/bits"

	"edn/internal/xrand"
)

// None marks an idle input.
const None = -1

// Pattern produces one request vector per call. Implementations may be
// stateful (e.g. draw fresh randomness each cycle).
type Pattern interface {
	// Generate fills dest[i] with the destination requested by input i or
	// None. The returned slice has length inputs and destinations in
	// [0, outputs).
	Generate(inputs, outputs int) []int
	// Name identifies the pattern in reports.
	Name() string
}

// IntoGenerator is an optional extension implemented by patterns that
// can fill a caller-provided request vector, letting steady-state
// Monte-Carlo loops (simulate.MeasurePA and friends) run allocation-free.
// GenerateInto must draw exactly the same randomness as Generate would
// for the same geometry, so the two entry points produce bit-identical
// traffic streams and measured results never depend on which one the
// harness picked. Every built-in Generate is GenerateInto into a fresh
// slice, and GenerateInto writes every entry of dest, so dest need not
// be cleared between cycles.
type IntoGenerator interface {
	Pattern
	// GenerateInto fills dest (len = network inputs) with one cycle's
	// requests, destinations in [0, outputs) or None.
	GenerateInto(dest []int, outputs int)
}

// Uniform is the Section 3.2 reference workload: each input independently
// carries a request with probability Rate, destined to a uniformly random
// output.
type Uniform struct {
	Rate float64
	Rng  *xrand.Rand
}

// Name implements Pattern.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(r=%.3g)", u.Rate) }

// Generate implements Pattern.
func (u Uniform) Generate(inputs, outputs int) []int {
	dest := make([]int, inputs)
	u.GenerateInto(dest, outputs)
	return dest
}

// GenerateInto implements IntoGenerator.
func (u Uniform) GenerateInto(dest []int, outputs int) {
	requests(dest, outputs, u.Rng, u.Rate, 0, 0)
}

// requests is the one kernel of Uniform, HotSpot and MovingHotSpot: each
// input requests with probability rate; a request goes to hot (already
// reduced into [0, outputs)) with probability fraction and otherwise to
// a uniform output. It takes, per input, the request coin's draw, the
// hot coin's draw and the uniform draw at their offsets without
// branching on any of them, and advances rng past the draws the
// reference loop
//
//	if !Bool(rate) { None } else if Bool(fraction) { hot } else { Intn(outputs) }
//
// would have taken. Coins of probability 0 or 1 take no draw. A
// branch-free input pays for every draw it might take, so when no
// request can be hot (fraction <= 0, as in Uniform) a second loop takes
// only the request coin's draw and the uniform one, and skips the
// request coin's when it takes none: at rate 1 an input costs one draw,
// as in the reference loop. The branches that choose are fixed for the
// call, never taken on a draw.
func requests(dest []int, outputs int, rng *xrand.Rand, rate, fraction float64, hot int) {
	req, toHot := xrand.NewCoin(rate), xrand.NewCoin(fraction)
	n := uint64(outputs)
	reject := -n % n // Intn redraws when the product's low word is below this
	if toHot == (xrand.Coin{}) {
		fixed := req.Hit(0)     // the request coin's outcome when it takes no draw
		atDest := 1 + req.Draws // offset of the uniform draw
		for i := range dest {
			r := fixed
			if req.Draws != 0 {
				r = req.Hit(rng.Peek(1))
			}
			d, lo := bits.Mul64(rng.Peek(atDest), n)
			if lo < reject && r == 1 {
				rng.Skip(atDest - 1)
				dest[i] = rng.Intn(outputs)
				continue
			}
			dest[i] = int(d) | (int(r) - 1) // None when no request
			rng.Skip(req.Draws + r)
		}
		return
	}
	atHot := 1 + req.Draws        // offset of the hot coin's draw
	atDest := atHot + toHot.Draws // offset of the uniform draw
	for i := range dest {
		r := req.Hit(rng.Peek(1))
		h := toHot.Hit(rng.Peek(atHot))
		d, lo := bits.Mul64(rng.Peek(atDest), n)
		if lo < reject && r&^h == 1 {
			rng.Skip(atDest - 1)
			dest[i] = rng.Intn(outputs)
			continue
		}
		d ^= (d ^ uint64(hot)) & -h
		dest[i] = int(d) | (int(r) - 1) // None when no request
		rng.Skip(req.Draws + r*(toHot.Draws+1-h))
	}
}

// RandomPermutation draws a fresh uniform permutation each cycle
// (Section 3.2.1 and the SIMD analysis assume square networks; for
// rectangular ones it draws an injection into the outputs). Use it by
// pointer to get the allocation-free GenerateInto fast path; the value
// form still implements Pattern.
type RandomPermutation struct {
	Rng *xrand.Rand

	perm []int // scratch for GenerateInto on rectangular geometries
}

// Name implements Pattern.
func (RandomPermutation) Name() string { return "random-permutation" }

// Generate implements Pattern.
func (p RandomPermutation) Generate(inputs, outputs int) []int {
	dest := make([]int, inputs)
	(&p).GenerateInto(dest, outputs)
	return dest
}

// GenerateInto implements IntoGenerator. Square networks permute straight
// into dest; rectangular ones go through a scratch permutation retained
// across cycles.
func (p *RandomPermutation) GenerateInto(dest []int, outputs int) {
	inputs := len(dest)
	if inputs == outputs {
		p.Rng.PermInto(dest)
		return
	}
	if cap(p.perm) < outputs {
		p.perm = make([]int, outputs)
	}
	perm := p.perm[:outputs]
	p.Rng.PermInto(perm)
	copy(dest, perm)
	for i := outputs; i < inputs; i++ {
		dest[i] = None
	}
}

// PartialPermutation draws a permutation and then keeps each entry with
// probability Rate: conflict-free traffic at reduced load. As with
// RandomPermutation, the pointer form adds the allocation-free
// GenerateInto fast path.
type PartialPermutation struct {
	Rate float64
	Rng  *xrand.Rand

	rp RandomPermutation // scratch-bearing delegate for GenerateInto
}

// Name implements Pattern.
func (p PartialPermutation) Name() string {
	return fmt.Sprintf("partial-permutation(r=%.3g)", p.Rate)
}

// Generate implements Pattern.
func (p PartialPermutation) Generate(inputs, outputs int) []int {
	dest := make([]int, inputs)
	(&p).GenerateInto(dest, outputs)
	return dest
}

// GenerateInto implements IntoGenerator.
func (p *PartialPermutation) GenerateInto(dest []int, outputs int) {
	p.rp.Rng = p.Rng
	p.rp.GenerateInto(dest, outputs)
	for i := range dest {
		if dest[i] != None && !p.Rng.Bool(p.Rate) {
			dest[i] = None
		}
	}
}

// HotSpot models a Non-Uniform Traffic Spot: with probability Fraction a
// request targets the single hot output; otherwise it is uniform. Rate
// controls the per-input offered load. Hot is reduced into
// [0, outputs) as MovingHotSpot's is, so a negative Hot counts back
// from the last output.
type HotSpot struct {
	Rate     float64
	Fraction float64
	Hot      int
	Rng      *xrand.Rand
}

// Name implements Pattern.
func (h HotSpot) Name() string {
	return fmt.Sprintf("hotspot(r=%.3g,f=%.3g,hot=%d)", h.Rate, h.Fraction, h.Hot)
}

// Generate implements Pattern.
func (h HotSpot) Generate(inputs, outputs int) []int {
	dest := make([]int, inputs)
	h.GenerateInto(dest, outputs)
	return dest
}

// GenerateInto implements IntoGenerator.
func (h HotSpot) GenerateInto(dest []int, outputs int) {
	requests(dest, outputs, h.Rng, h.Rate, h.Fraction, wrap(h.Hot, outputs))
}

// wrap reduces an output label into [0, outputs).
func wrap(hot, outputs int) int {
	hot %= outputs
	if hot < 0 {
		hot += outputs
	}
	return hot
}
