// Package dilated models d-dilated delta networks (Szymanski & Hamacher),
// the multipath alternative the paper's introduction compares EDNs
// against: a classical radix-b delta network whose every internal link is
// replicated d times. Like an EDN, a dilated network offers multiple
// paths; unlike an EDN, the extra wires are *added on top of* the port
// count instead of being absorbed into it, so — as Section 1 notes — a
// d-dilated network carries d times the wires of the equivalent-stage EDN
// with the same number of inputs. This package provides the cost and
// healthy acceptance models that quantify that claim for the ablation
// benchmarks. It has no fault model of its own: internal/dilatedsim
// builds the network's fabric descriptor and sub-wire population, and
// internal/faults compiles, floods and models its faults
// (ExpectedUniformBandwidth, which reduces to PA on the empty mask).
package dilated

import (
	"fmt"
	"math"

	"edn/internal/analytic"
	"edn/internal/topology"
)

// Config is a square radix-B delta network of L stages whose internal
// links are D-wide. Network ports are single wires: B^L inputs and B^L
// outputs.
type Config struct {
	B int // switch radix (b x b switches, square)
	D int // link dilation
	L int // stages
}

// New validates and returns a d-dilated delta configuration.
func New(b, d, l int) (Config, error) {
	cfg := Config{B: b, D: d, L: l}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration (powers of two, like the EDN side).
func (cfg Config) Validate() error {
	switch {
	case !isPow2(cfg.B) || cfg.B < 2:
		return fmt.Errorf("dilated: radix b=%d must be a power of two >= 2", cfg.B)
	case !isPow2(cfg.D):
		return fmt.Errorf("dilated: dilation d=%d must be a positive power of two", cfg.D)
	case cfg.L < 1:
		return fmt.Errorf("dilated: l=%d must be at least 1", cfg.L)
	}
	if bits := cfg.L * log2(cfg.B); bits > 40 {
		return fmt.Errorf("dilated: network with %d address bits is too large", bits)
	}
	return nil
}

// Ports returns the number of input (and output) terminals, B^L.
func (cfg Config) Ports() int { return pow(cfg.B, cfg.L) }

// WiresBetweenStages returns the wire count between consecutive stages:
// D * B^L for every interior boundary.
func (cfg Config) WiresBetweenStages() int { return cfg.D * cfg.Ports() }

// WireCount returns the total wire cost, counted like Equation 3: one
// wire per input and output terminal plus the dilated interstage links.
func (cfg Config) WireCount() int64 {
	interior := int64(cfg.L-1) * int64(cfg.WiresBetweenStages())
	return interior + 2*int64(cfg.Ports())
}

// CrosspointCount returns the crosspoint cost: stage 1 uses B-input
// switches fed by single-wire ports with D-wide output groups
// (B*B*D crosspoints each, the H(b -> b x d) form); stages 2..L use
// (B*D)-input switches (B*D*B*D crosspoints each).
func (cfg Config) CrosspointCount() int64 {
	perStageSwitches := int64(pow(cfg.B, cfg.L-1))
	first := perStageSwitches * int64(cfg.B*cfg.B*cfg.D)
	rest := int64(cfg.L-1) * perStageSwitches * int64(cfg.B*cfg.D*cfg.B*cfg.D)
	return first + rest
}

// String renders the configuration.
func (cfg Config) String() string {
	return fmt.Sprintf("%d-dilated delta(b=%d,l=%d)", cfg.D, cfg.B, cfg.L)
}

// PA returns the probability of acceptance under the Section 3.2 traffic
// assumptions, built from the same bucket-acceptance primitive as the EDN
// model: stage 1 is an H(b -> b x d) switch, interior stages are
// H(bd -> b x d), and each single-wire output port accepts one of the up
// to d arrivals on its final link group.
func (cfg Config) PA(r float64) float64 {
	if r == 0 {
		return 1
	}
	// Per-wire rate through the stages.
	ri := analytic.BucketAcceptance(cfg.B, cfg.B, cfg.D, r) / float64(cfg.D)
	for i := 2; i <= cfg.L; i++ {
		ri = analytic.BucketAcceptance(cfg.B*cfg.D, cfg.B, cfg.D, ri) / float64(cfg.D)
	}
	// Output port: d wires, one survivor.
	rOut := 1 - math.Pow(1-ri, float64(cfg.D))
	return rOut / r
}

// EquivalentEDN returns the EDN with the same number of inputs and the
// same switching radix/capacity: EDN(b*d, b, d, l') with b^l' * d = b^l.
// It errors when the dilation is not a power of the radix (no EDN of
// integral depth matches the port count exactly).
func (cfg Config) EquivalentEDN() (topology.Config, error) {
	// Solve b^lp * d = b^l  =>  lp = l - log_b(d).
	logB := log2(cfg.B)
	logD := log2(cfg.D)
	if logD%logB != 0 {
		return topology.Config{}, fmt.Errorf("dilated: dilation %d is not a power of radix %d", cfg.D, cfg.B)
	}
	lp := cfg.L - logD/logB
	if lp < 1 {
		return topology.Config{}, fmt.Errorf("dilated: network too shallow for an equivalent EDN (l'=%d)", lp)
	}
	return topology.New(cfg.B*cfg.D, cfg.B, cfg.D, lp)
}

// Counterpart returns the dilated delta network comparable to the
// given EDN: the same number of input ports and a dilation equal to
// the EDN's bucket capacity c, so a fault fraction applied to the
// dilated sub-wires and to the EDN's interstage wires kills the same
// share of each network's redundancy. The radix prefers the EDN's own
// b when the port count is an exact power of it (the EquivalentEDN
// relation, inverted) and falls back to radix 2, which always divides
// a power-of-two port count.
func Counterpart(edn topology.Config) (Config, error) {
	ports := edn.Inputs()
	d := edn.C
	if k, ok := logExact(edn.B, ports); ok {
		return New(edn.B, d, k)
	}
	if k, ok := logExact(2, ports); ok {
		return New(2, d, k)
	}
	return Config{}, fmt.Errorf("dilated: no counterpart for %v (%d ports)", edn, ports)
}

// logExact returns k with base^k == v, if one exists.
func logExact(base, v int) (int, bool) {
	if base < 2 || v < base {
		return 0, false
	}
	k := 0
	for v > 1 {
		if v%base != 0 {
			return 0, false
		}
		v /= base
		k++
	}
	return k, true
}

// WireRatioVersusEDN returns the interstage wire ratio of this dilated
// network over its equivalent EDN — the Section 1 claim says this is d.
func (cfg Config) WireRatioVersusEDN() (float64, error) {
	edn, err := cfg.EquivalentEDN()
	if err != nil {
		return 0, err
	}
	if edn.Inputs() != cfg.Ports() {
		return 0, fmt.Errorf("dilated: equivalence broken: %d vs %d ports", edn.Inputs(), cfg.Ports())
	}
	return float64(cfg.WiresBetweenStages()) / float64(edn.WiresAfterStage(1)), nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func pow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}
