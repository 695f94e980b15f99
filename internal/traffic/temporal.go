package traffic

import (
	"fmt"
	"math/bits"

	"edn/internal/xrand"
)

// This file holds the temporally correlated sources used by the queueing
// simulator (internal/queuesim): unlike the memoryless patterns of
// traffic.go, these carry state from cycle to cycle, which is exactly
// what makes queueing delay interesting — bursts fill buffers faster
// than the mean rate suggests, and a drifting hot spot keeps re-aiming
// the congestion before queues drain. Both are Patterns by pointer, so
// the per-cycle state lives on the value.

// MarkovOnOff is the classical two-state bursty source: each input
// independently alternates between an ON state, in which it offers a
// request with probability Rate each cycle, and a silent OFF state. The
// transitions are memoryless — ON->OFF with probability POff, OFF->ON
// with probability POn — so burst and idle lengths are geometrically
// distributed with means 1/POff and 1/POn, and the long-run offered
// load is Rate * POn/(POn+POff). Initial states are drawn from the
// stationary distribution, so the stream is bursty from cycle one.
type MarkovOnOff struct {
	Rate float64 // request probability while ON (1 = a packet every ON cycle)
	POn  float64 // OFF -> ON transition probability per cycle
	POff float64 // ON -> OFF transition probability per cycle
	Rng  *xrand.Rand

	on []uint8 // per-input state (1 = ON), sized lazily from the request vector
}

// Name implements Pattern.
func (m *MarkovOnOff) Name() string {
	return fmt.Sprintf("markov-onoff(r=%.3g,pOn=%.3g,pOff=%.3g)", m.Rate, m.POn, m.POff)
}

// OfferedLoad returns the long-run per-input request probability,
// Rate * POn/(POn+POff) — the value to compare against a memoryless
// Uniform source of the same mean load.
func (m *MarkovOnOff) OfferedLoad() float64 {
	if m.POn+m.POff == 0 {
		return 0
	}
	return m.Rate * m.POn / (m.POn + m.POff)
}

// duty is the stationary probability of the ON state.
func (m *MarkovOnOff) duty() float64 {
	if m.POn+m.POff == 0 {
		return 0
	}
	return m.POn / (m.POn + m.POff)
}

// GenerateInto implements Pattern. Per input: advance the Markov
// state, then emit. Like requests, it takes each draw at its offset and
// selects instead of branching, advancing the stream past exactly the
// draws of the reference loop
//
//	if on { on = !Bool(POff) } else { on = Bool(POn) }
//	if on && Bool(Rate) { Intn(outputs) } else { None }
//
// after the initial states, one Bool(duty) per input.
func (m *MarkovOnOff) GenerateInto(dest []int, outputs int) {
	rng := m.Rng
	if len(m.on) != len(dest) {
		m.on = make([]uint8, len(dest))
		duty := xrand.NewCoin(m.duty())
		for i := range m.on {
			m.on[i] = uint8(duty.Hit(rng.Peek(1 + uint64(i)*duty.Draws)))
		}
		rng.Skip(uint64(len(m.on)) * duty.Draws)
	}
	toOff, toOn, req := xrand.NewCoin(m.POff), xrand.NewCoin(m.POn), xrand.NewCoin(m.Rate)
	fixed := req.Hit(0) // the Rate coin's outcome when it takes no draw
	n := uint64(outputs)
	reject := -n % n // Intn redraws when the product's low word is below this
	for i := range dest {
		on := uint64(m.on[i])
		// An ON input flips the POff coin, an OFF one the POn coin; the
		// state changes when it comes up.
		flip := xrand.Coin{Threshold: toOn.Threshold ^ (toOn.Threshold^toOff.Threshold)&-on}
		d1 := toOn.Draws ^ (toOn.Draws^toOff.Draws)&-on
		on ^= flip.Hit(rng.Peek(1))
		// Only an ON input flips the Rate coin; at Rate 1 (BurstyLoad's)
		// it takes no draw, and the branch that skips it is fixed for
		// the call.
		d2 := req.Draws & -on
		r := on & fixed
		if req.Draws != 0 {
			r = on & req.Hit(rng.Peek(1+d1))
		}
		d, lo := bits.Mul64(rng.Peek(1+d1+d2), n)
		m.on[i] = uint8(on)
		if lo < reject && r == 1 {
			rng.Skip(d1 + d2)
			dest[i] = rng.Intn(outputs)
			continue
		}
		dest[i] = int(d) | (int(r) - 1) // None when no request
		rng.Skip(d1 + d2 + r)
	}
}

// MovingHotSpot is the hotspot-over-time variant of HotSpot: with
// probability Fraction a request targets the current hot output,
// otherwise it is uniform; every Period cycles the hot output advances
// by Stride (mod outputs). A queueing network that rides out a static
// hot spot by filling the buffers in front of it must re-converge every
// time the spot moves, so this pattern probes drain behavior, not just
// steady-state saturation.
type MovingHotSpot struct {
	Rate     float64 // per-input offered load
	Fraction float64 // fraction of requests aimed at the hot output
	Hot      int     // initial hot output
	Period   int     // cycles between moves (values < 1 behave as 1)
	Stride   int     // hot-output advance per move (0 behaves as 1)
	Rng      *xrand.Rand

	cycle int
}

// Name implements Pattern.
func (m *MovingHotSpot) Name() string {
	return fmt.Sprintf("moving-hotspot(r=%.3g,f=%.3g,period=%d,stride=%d)",
		m.Rate, m.Fraction, m.Period, m.Stride)
}

// CurrentHot returns the hot output the next generated cycle will aim
// at, for a network with the given output count.
func (m *MovingHotSpot) CurrentHot(outputs int) int {
	return wrap(m.Hot+m.cycle/m.period()*m.stride(), outputs)
}

func (m *MovingHotSpot) period() int {
	if m.Period < 1 {
		return 1
	}
	return m.Period
}

func (m *MovingHotSpot) stride() int {
	if m.Stride == 0 {
		return 1
	}
	return m.Stride
}

// GenerateInto implements Pattern: HotSpot's kernel aimed at
// CurrentHot.
func (m *MovingHotSpot) GenerateInto(dest []int, outputs int) {
	requests(dest, outputs, m.Rng, m.Rate, m.Fraction, m.CurrentHot(outputs))
	m.cycle++
}
