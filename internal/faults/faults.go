// Package faults models component failures in an Expanded Delta Network
// and compiles them into the per-stage availability masks the routing
// engines consume. The paper's Theorem 2 gives an EDN(a,b,c,l) exactly
// c^l equivalent paths per source/destination pair; the packet engine
// (internal/queuesim, and core's face over it) exploits that freedom
// for bandwidth. This package
// turns the same freedom into survival: when a wire, a switch output
// port or a whole switch dies, every request whose bucket still owns a
// live wire routes around the fault, and only a fully dead bucket
// blocks.
//
// Three layers:
//
//   - A Set is a declarative fault specification: dead switches, dead
//     interstage wires and dead switch output ports, as explicit ID
//     lists. Sets come from deterministic construction (test vectors,
//     known-bad boards), from Bernoulli sampling, from a nested Plan
//     (monotone sweeps) or from Blast (correlated blast-radius
//     failures).
//   - Compile folds a Set into Masks: one availability row per stage in
//     the stage-local output-wire label space — exactly the labels the
//     fused grant kernels already index — plus an input-side row for
//     faults that sever network inputs. Unfaulted stages compile to nil
//     rows, so the engines keep their bit-for-bit unfaulted fast paths.
//   - ExpectedUniformBandwidth (expected.go) is the analytic
//     counterpart: the paper's Theorem 3 rate recursion generalized to
//     per-wire rates over the masked topology, used to cross-check the
//     measured degradation for small fault counts.
package faults

import (
	"fmt"
	"sort"

	"edn/internal/topology"
	"edn/internal/xrand"
)

// SwitchID names one physical switch: Stage is 1-based (stages 1..l are
// hyperbars, stage l+1 the output crossbars), Switch the index within
// the stage. A dead switch passes no traffic: everything wired into it
// is blocked upstream, and nothing leaves it.
type SwitchID struct {
	Stage  int
	Switch int
}

// WireID names one wire at a stage boundary by its downstream (input
// side) label: Boundary 0 is the network input wires, boundary i
// (1 <= i <= l) the wires between stage i and stage i+1 after the gamma
// shuffle. A dead wire removes one of the c parallel wires of its
// bucket; the bucket survives while any sibling lives.
type WireID struct {
	Boundary int
	Wire     int
}

// PortID names one switch output port in pre-shuffle coordinates:
// output wire `Wire` of bucket `Bucket` of switch `Switch` in `Stage`.
// For the crossbar stage (Stage == l+1) Bucket is the output port and
// Wire must be 0, so a dead crossbar port is a dead network output
// terminal.
type PortID struct {
	Stage  int
	Switch int
	Bucket int
	Wire   int
}

// Set is a declarative fault specification. The zero value is the
// fault-free network. Duplicate entries are allowed and idempotent.
type Set struct {
	Switches []SwitchID
	Wires    []WireID
	Ports    []PortID
}

// IsZero reports whether the set names no faults at all.
func (s Set) IsZero() bool {
	return len(s.Switches) == 0 && len(s.Wires) == 0 && len(s.Ports) == 0
}

// Len returns the number of fault entries (duplicates included).
func (s Set) Len() int { return len(s.Switches) + len(s.Wires) + len(s.Ports) }

// Mode selects which component population a sampled fault fraction
// applies to.
type Mode int

const (
	// WireFaults kills interstage wires (boundaries 1..l) — the regime
	// where bucket multipath (c > 1) pays off directly.
	WireFaults Mode = iota
	// SwitchFaults kills whole switches in every stage.
	SwitchFaults
	// MixedFaults applies the fraction independently to both populations.
	MixedFaults
)

// String renders the mode for reports and flags.
func (m Mode) String() string {
	switch m {
	case WireFaults:
		return "wires"
	case SwitchFaults:
		return "switches"
	case MixedFaults:
		return "mixed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String, for flag parsing.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "wires":
		return WireFaults, nil
	case "switches":
		return SwitchFaults, nil
	case "mixed":
		return MixedFaults, nil
	default:
		return 0, fmt.Errorf("faults: unknown mode %q (want wires, switches or mixed)", s)
	}
}

// Bernoulli samples a fault set over cfg: each component of the mode's
// population dies independently with probability p. Wire faults draw
// over the interstage boundaries 1..l; switch faults over every stage
// including the output crossbars. The draw order is fixed (boundaries
// then stages, ascending labels), so a given (cfg, mode, rng state) is
// reproducible.
func Bernoulli(cfg topology.Config, mode Mode, p float64, rng *xrand.Rand) Set {
	var set Set
	if p <= 0 {
		return set
	}
	if mode == WireFaults || mode == MixedFaults {
		for i := 1; i <= cfg.L; i++ {
			for w := 0; w < cfg.WiresAfterStage(i); w++ {
				if rng.Bool(p) {
					set.Wires = append(set.Wires, WireID{Boundary: i, Wire: w})
				}
			}
		}
	}
	if mode == SwitchFaults || mode == MixedFaults {
		for s := 1; s <= cfg.L+1; s++ {
			for sw := 0; sw < cfg.SwitchesInStage(s); sw++ {
				if rng.Bool(p) {
					set.Switches = append(set.Switches, SwitchID{Stage: s, Switch: sw})
				}
			}
		}
	}
	return set
}

// Blast returns the correlated "blast radius" pattern: switches
// [center-radius, center+radius] of one stage all die together — a
// failed board or cabinet taking its neighbors with it. Indices clamp
// to the stage's switch range.
func Blast(cfg topology.Config, stage, center, radius int) (Set, error) {
	if stage < 1 || stage > cfg.L+1 {
		return Set{}, fmt.Errorf("faults: blast stage %d out of range [1,%d]", stage, cfg.L+1)
	}
	if radius < 0 {
		return Set{}, fmt.Errorf("faults: blast radius %d must be non-negative", radius)
	}
	n := cfg.SwitchesInStage(stage)
	if center < 0 || center >= n {
		return Set{}, fmt.Errorf("faults: blast center %d out of range [0,%d)", center, n)
	}
	lo, hi := center-radius, center+radius
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	var set Set
	for sw := lo; sw <= hi; sw++ {
		set.Switches = append(set.Switches, SwitchID{Stage: stage, Switch: sw})
	}
	return set, nil
}

// Plan is a nested family of fault sets: every component of the mode's
// population draws one uniform severity at construction, and At(f)
// returns exactly the components whose severity falls below f. Each
// At(f) is marginally a Bernoulli(f) sample, and the sets are nested —
// At(f1) is a subset of At(f2) whenever f1 <= f2 — so a sweep over
// rising fractions degrades one fixed failure story instead of
// resampling the world at every point. simulate.AvailabilitySweep
// builds one Plan per shard for exactly this reason.
type Plan struct {
	cfg      topology.Config
	mode     Mode
	wires    [][]float64 // [boundary-1][wire] severity, WireFaults/MixedFaults
	switches [][]float64 // [stage-1][switch] severity, SwitchFaults/MixedFaults
}

// NewPlan draws the per-component severities for cfg from rng.
func NewPlan(cfg topology.Config, mode Mode, rng *xrand.Rand) *Plan {
	p := &Plan{cfg: cfg, mode: mode}
	if mode == WireFaults || mode == MixedFaults {
		p.wires = make([][]float64, cfg.L)
		for i := 1; i <= cfg.L; i++ {
			row := make([]float64, cfg.WiresAfterStage(i))
			for w := range row {
				row[w] = rng.Float64()
			}
			p.wires[i-1] = row
		}
	}
	if mode == SwitchFaults || mode == MixedFaults {
		p.switches = make([][]float64, cfg.L+1)
		for s := 1; s <= cfg.L+1; s++ {
			row := make([]float64, cfg.SwitchesInStage(s))
			for sw := range row {
				row[sw] = rng.Float64()
			}
			p.switches[s-1] = row
		}
	}
	return p
}

// Config returns the plan's network configuration.
func (p *Plan) Config() topology.Config { return p.cfg }

// Mode returns the plan's fault population.
func (p *Plan) Mode() Mode { return p.mode }

// At returns the fault set of fraction f: every component whose
// severity is below f. f <= 0 is the empty set; f >= 1 kills the whole
// population.
func (p *Plan) At(f float64) Set {
	var set Set
	for i, row := range p.wires {
		for w, u := range row {
			if u < f {
				set.Wires = append(set.Wires, WireID{Boundary: i + 1, Wire: w})
			}
		}
	}
	for s, row := range p.switches {
		for sw, u := range row {
			if u < f {
				set.Switches = append(set.Switches, SwitchID{Stage: s + 1, Switch: sw})
			}
		}
	}
	return set
}

// sortedIDs renders a Set deterministically for error messages and
// reports: switches, wires, ports, each in ascending order.
func (s Set) String() string {
	sw := append([]SwitchID(nil), s.Switches...)
	sort.Slice(sw, func(i, j int) bool {
		if sw[i].Stage != sw[j].Stage {
			return sw[i].Stage < sw[j].Stage
		}
		return sw[i].Switch < sw[j].Switch
	})
	wi := append([]WireID(nil), s.Wires...)
	sort.Slice(wi, func(i, j int) bool {
		if wi[i].Boundary != wi[j].Boundary {
			return wi[i].Boundary < wi[j].Boundary
		}
		return wi[i].Wire < wi[j].Wire
	})
	return fmt.Sprintf("faults{switches: %v, wires: %v, ports: %d}", sw, wi, len(s.Ports))
}
