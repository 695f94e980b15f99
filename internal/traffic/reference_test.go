package traffic

import (
	"math"
	"testing"

	"edn/internal/xrand"
)

// The per-input branch loops the offset-draw kernels replaced, kept as
// the oracle: one Bool or Intn call per draw, in input order.

func refUniform(dest []int, outputs int, rng *xrand.Rand, rate float64) {
	for i := range dest {
		if rng.Bool(rate) {
			dest[i] = rng.Intn(outputs)
		} else {
			dest[i] = None
		}
	}
}

func refHotSpot(dest []int, outputs int, rng *xrand.Rand, rate, fraction float64, hot int) {
	for i := range dest {
		switch {
		case !rng.Bool(rate):
			dest[i] = None
		case rng.Bool(fraction):
			dest[i] = hot % outputs
		default:
			dest[i] = rng.Intn(outputs)
		}
	}
}

type refMovingHotSpot struct {
	MovingHotSpot // the parameters; cycle counts the reference's own calls
}

func (m *refMovingHotSpot) generateInto(dest []int, outputs int) {
	period, stride := m.period(), m.stride()
	moves := m.cycle / period
	hot := (m.Hot + moves*stride) % outputs
	if hot < 0 {
		hot += outputs
	}
	for i := range dest {
		switch {
		case !m.Rng.Bool(m.Rate):
			dest[i] = None
		case m.Rng.Bool(m.Fraction):
			dest[i] = hot
		default:
			dest[i] = m.Rng.Intn(outputs)
		}
	}
	m.cycle++
}

type refMarkov struct {
	Rate, POn, POff float64
	Rng             *xrand.Rand
	on              []bool
}

func (m *refMarkov) generateInto(dest []int, outputs int) {
	if len(m.on) != len(dest) {
		m.on = make([]bool, len(dest))
		duty := (&MarkovOnOff{POn: m.POn, POff: m.POff}).duty()
		for i := range m.on {
			m.on[i] = m.Rng.Bool(duty)
		}
	}
	for i := range dest {
		if m.on[i] {
			if m.Rng.Bool(m.POff) {
				m.on[i] = false
			}
		} else if m.Rng.Bool(m.POn) {
			m.on[i] = true
		}
		if m.on[i] && m.Rng.Bool(m.Rate) {
			dest[i] = m.Rng.Intn(outputs)
		} else {
			dest[i] = None
		}
	}
}

// oracleProbs are the coin probabilities of the differential grid:
// both no-draw edges and their outsides, the smallest positive draw
// threshold, interior values, the largest probability below 1, and the
// non-finite ones.
var oracleProbs = []float64{-1, 0, 1e-300, 0.3, 0.5, 1 - 0x1p-53, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1)}

// oracleOutputs includes a bound near 2⁶², where Intn rejects about a
// quarter of its draws, so the kernels' fallback runs often.
var oracleOutputs = []int{1, 3, 1024, 4096, 1<<62 + 12345}

var oracleSeeds = []uint64{1, 2, 0x9e3779b97f4a7c15}

const oracleCalls = 4

// sameStream reports whether a and b's next Uint64 agree, without
// advancing either.
func sameStream(a, b *xrand.Rand) bool {
	ca, cb := *a, *b
	return ca.Uint64() == cb.Uint64()
}

// checkCall fails the test unless got and want are equal vectors and
// the two generators stand at the same stream position.
func checkCall(t *testing.T, what string, call int, got, want []int, gotRng, wantRng *xrand.Rand) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s call %d: input %d requests %d, reference %d", what, call, i, got[i], want[i])
		}
	}
	if !sameStream(gotRng, wantRng) {
		t.Fatalf("%s call %d: stream position differs from the reference", what, call)
	}
}

// garbage fills dest with values no pattern writes, so an entry the
// kernel skips shows.
func garbage(dest []int) {
	for i := range dest {
		dest[i] = -7 - i
	}
}

func TestUniformMatchesReference(t *testing.T) {
	for _, rate := range oracleProbs {
		for _, outputs := range oracleOutputs {
			for _, seed := range oracleSeeds {
				for _, inputs := range []int{1, 5, 64} {
					u := Uniform{Rate: rate, Rng: xrand.New(seed)}
					ref := xrand.New(seed)
					got, want := make([]int, inputs), make([]int, inputs)
					for c := 0; c < oracleCalls; c++ {
						garbage(got)
						u.GenerateInto(got, outputs)
						refUniform(want, outputs, ref, rate)
						checkCall(t, u.Name(), c, got, want, u.Rng, ref)
					}
				}
			}
		}
	}
}

func TestHotSpotMatchesReference(t *testing.T) {
	cases := 0
	for _, rate := range oracleProbs {
		for _, fraction := range oracleProbs {
			for _, outputs := range oracleOutputs {
				for _, seed := range oracleSeeds {
					for _, hot := range []int{0, 5, 1<<40 + 3} {
						h := HotSpot{Rate: rate, Fraction: fraction, Hot: hot, Rng: xrand.New(seed)}
						ref := xrand.New(seed)
						got, want := make([]int, 37), make([]int, 37)
						for c := 0; c < oracleCalls; c++ {
							garbage(got)
							h.GenerateInto(got, outputs)
							refHotSpot(want, outputs, ref, rate, fraction, hot)
							checkCall(t, h.Name(), c, got, want, h.Rng, ref)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d hot-spot cases", cases)
}

func TestMovingHotSpotMatchesReference(t *testing.T) {
	for _, rate := range oracleProbs {
		for _, fraction := range oracleProbs {
			for _, outputs := range oracleOutputs {
				for _, seed := range oracleSeeds {
					for _, shape := range [][3]int{{0, 0, 0}, {-3, 1, 1}, {7, 2, -5}, {1 << 40, 3, 1 << 20}} {
						p := MovingHotSpot{Rate: rate, Fraction: fraction, Hot: shape[0], Period: shape[1], Stride: shape[2]}
						m, ref := p, refMovingHotSpot{p}
						m.Rng, ref.Rng = xrand.New(seed), xrand.New(seed)
						got, want := make([]int, 37), make([]int, 37)
						for c := 0; c < oracleCalls; c++ {
							garbage(got)
							m.GenerateInto(got, outputs)
							ref.generateInto(want, outputs)
							checkCall(t, m.Name(), c, got, want, m.Rng, ref.Rng)
						}
					}
				}
			}
		}
	}
}

func TestMarkovOnOffMatchesReference(t *testing.T) {
	for _, rate := range oracleProbs {
		for _, pOn := range oracleProbs {
			for _, pOff := range oracleProbs {
				for _, outputs := range oracleOutputs {
					for _, seed := range oracleSeeds {
						m := &MarkovOnOff{Rate: rate, POn: pOn, POff: pOff, Rng: xrand.New(seed)}
						ref := &refMarkov{Rate: rate, POn: pOn, POff: pOff, Rng: xrand.New(seed)}
						got, want := make([]int, 33), make([]int, 33)
						for c := 0; c < oracleCalls; c++ {
							garbage(got)
							m.GenerateInto(got, outputs)
							ref.generateInto(want, outputs)
							checkCall(t, m.Name(), c, got, want, m.Rng, ref.Rng)
							for i, on := range ref.on {
								if (m.on[i] == 1) != on {
									t.Fatalf("%s call %d: input %d on=%d, reference %v", m.Name(), c, i, m.on[i], on)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGenerateResizesMarkovState pins the lazy re-initialization: a
// request vector of another length redraws every state from the
// stationary coin, as the reference does.
func TestGenerateResizesMarkovState(t *testing.T) {
	m := &MarkovOnOff{Rate: 0.7, POn: 0.2, POff: 0.3, Rng: xrand.New(4)}
	ref := &refMarkov{Rate: 0.7, POn: 0.2, POff: 0.3, Rng: xrand.New(4)}
	for c, inputs := range []int{8, 8, 3, 64, 64, 1} {
		got, want := genVec(m, inputs, 16), make([]int, inputs)
		ref.generateInto(want, 16)
		checkCall(t, m.Name(), c, got, want, m.Rng, ref.Rng)
	}
}

// TestHotSpotNegativeHotWraps pins HotSpot to MovingHotSpot's rule: a
// hot output is reduced into [0, outputs), so hot -3 on 8 outputs is
// output 5, and 11 is output 3.
func TestHotSpotNegativeHotWraps(t *testing.T) {
	for _, c := range [][2]int{{-3, 5}, {11, 3}, {-8, 0}, {-17, 7}} {
		got := genVec(HotSpot{Rate: 1, Fraction: 1, Hot: c[0], Rng: xrand.New(1)}, 4, 8)
		still := genVec(&MovingHotSpot{Rate: 1, Fraction: 1, Hot: c[0], Period: 1 << 30, Rng: xrand.New(1)}, 4, 8)
		for i := range got {
			if got[i] != c[1] || still[i] != c[1] {
				t.Fatalf("hot %d on 8 outputs: HotSpot aims at %d, MovingHotSpot at %d, want %d", c[0], got[i], still[i], c[1])
			}
		}
	}
}
