// Package faults is the one fault model of the repository's fabrics. A
// fabric is a per-stage descriptor ([]topology.Stage: switches whose
// output buckets hold interchangeable wires, joined by interstage
// tables); topology.Config.Fabric builds the EDN's and
// internal/dilatedsim the d-dilated delta's, and this package compiles
// the dead components of any descriptor into the liveness rows the
// packet engine (internal/queuesim) runs under. The paper's Theorem 2
// gives an EDN(a,b,c,l) exactly c^l equivalent paths per
// source/destination pair; the engine exploits that freedom for
// bandwidth, and this package turns it into survival: when a wire, a
// switch output port or a whole switch dies, every request whose bucket
// still owns a live wire routes around the fault, and only a fully dead
// bucket blocks. A dilated delta's sub-wires are stage-output wires of
// its descriptor, so a dilated fault is a PortID in a Set like any
// other, and the comparison network's link replication is sampled,
// compiled, flooded and modelled by the same code — a new topology
// needs only a descriptor builder and its population.
//
// Four layers:
//
//   - A Set is a declarative fault specification: dead switches, dead
//     stage-input wires and dead stage-output wires (ports), as explicit
//     ID lists. Sets come from deterministic construction (test vectors,
//     known-bad boards), from Blast (correlated blast-radius failures),
//     or from a Population — an ordered list of a fabric's components —
//     by Bernoulli sampling, a nested Plan (monotone sweeps) or
//     internal/lifecycle's renewal churn.
//   - Compile (the EDN) and CompileFabric (any descriptor) fold a Set
//     into Masks: one availability row per stage in the stage-local
//     output-wire label space — exactly the labels the grant loops
//     index — plus an input-side row for faults that sever network
//     inputs. Unfaulted stages compile to nil rows, so the engine keeps
//     its bit-for-bit unfaulted fast paths.
//   - Masks.ReachableOutputsInto is the one forward flood: which output
//     terminals some live input still reaches.
//   - ExpectedUniformBandwidth (expected.go) is the one analytic
//     counterpart, for any descriptor: the paper's Theorem 3 rate
//     recursion generalized to per-wire rates over the masked fabric,
//     used to cross-check the measured degradation. On empty masks it
//     is each fabric's healthy closed form (analytic.Bandwidth for an
//     EDN, dilated.Config.PA for a dilated delta).
package faults

import (
	"fmt"
	"slices"
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

// WireID names one stage-input wire: boundary b carries the input
// wires of stage b+1, by their downstream label. Boundary 0 is the
// network input wires; an EDN's boundary i (1 <= i <= l) the wires
// between stage i and stage i+1 after the gamma shuffle. A dead wire
// removes one of the c parallel wires of its bucket; the bucket
// survives while any sibling lives.
type WireID struct {
	Boundary int
	Wire     int
}

// PortID names one stage-output wire (a switch output port) in
// pre-shuffle coordinates: output wire `Wire` of bucket `Bucket` of
// switch `Switch` in `Stage`, label (Switch*Buckets+Bucket)*Wires+Wire
// of the stage's descriptor. For an EDN's crossbar stage (Stage == l+1)
// Bucket is the output port and Wire must be 0, so a dead crossbar port
// is a dead network output terminal. A d-dilated delta's sub-wire
// (boundary i, group g, wire w) is PortID{i, g/b, g%b, w}.
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

// Mode selects which EDN component population (ModePopulation) a
// sampled fault fraction applies to.
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

// modes lists the valid modes, in the order flags name them.
var modes = [...]Mode{WireFaults, SwitchFaults, MixedFaults}

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
	for _, m := range modes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown mode %q (want wires, switches or mixed)", s)
}

// CheckMode rejects a Mode that names no population: ModePopulation
// would return an empty one, so a sweep would measure the healthy
// network under a "mode(n)" label.
func CheckMode(m Mode) error {
	if !slices.Contains(modes[:], m) {
		return fmt.Errorf("faults: unknown mode %v (want wires, switches or mixed)", m)
	}
	return nil
}

// Bernoulli samples a fault set over cfg: each component of the mode's
// population (ModePopulation) dies independently with probability p.
func Bernoulli(cfg topology.Config, mode Mode, p float64, rng *xrand.Rand) Set {
	return ModePopulation(cfg, mode).Bernoulli(p, rng)
}

// CheckFraction rejects a fault fraction outside [0,1], NaN included:
// the one check every fraction a caller supplies goes through.
func CheckFraction(f float64) error {
	if !(f >= 0 && f <= 1) {
		return fmt.Errorf("faults: fault fraction %g out of [0,1]", f)
	}
	return nil
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

// RunKind is the component kind of a population Run.
type RunKind uint8

const (
	// SwitchRun components are SwitchIDs of one stage.
	SwitchRun RunKind = iota
	// WireRun components are WireIDs of one boundary.
	WireRun
	// PortRun components are PortIDs of one stage: its output wires in
	// label order.
	PortRun
)

// Run is N components of one kind, at stage At (switches, ports) or
// boundary At (wires), in ascending label order. Buckets and Wires give
// a port run's label layout, the stage descriptor's own.
type Run struct {
	Kind           RunKind
	At, N          int
	Buckets, Wires int
}

// Append appends the run's component i to set.
func (r Run) Append(set *Set, i int) {
	switch r.Kind {
	case SwitchRun:
		set.Switches = append(set.Switches, SwitchID{Stage: r.At, Switch: i})
	case WireRun:
		set.Wires = append(set.Wires, WireID{Boundary: r.At, Wire: i})
	default:
		per := r.Buckets * r.Wires
		set.Ports = append(set.Ports, PortID{Stage: r.At, Switch: i / per, Bucket: i % per / r.Wires, Wire: i % r.Wires})
	}
}

// Population is an ordered list of a fabric's failure-prone components.
// Its order is the draw order of every sampler and renewal process over
// it (Bernoulli, Plan, lifecycle.Process), so a given (population, rng
// state) replays bit-for-bit. ModePopulation builds the EDN's; a fabric
// of another shape lists its own runs (internal/dilatedsim's sub-wires
// are the port runs of its switch stages).
type Population []Run

// ModePopulation returns mode's population over an EDN: interstage
// wires (boundaries 1..l, where bucket multipath pays off directly),
// switches of every stage including the output crossbars, or both —
// wires first.
func ModePopulation(cfg topology.Config, mode Mode) Population {
	var p Population
	if mode == WireFaults || mode == MixedFaults {
		for i := 1; i <= cfg.L; i++ {
			p = append(p, Run{Kind: WireRun, At: i, N: cfg.WiresAfterStage(i)})
		}
	}
	if mode == SwitchFaults || mode == MixedFaults {
		for s := 1; s <= cfg.L+1; s++ {
			p = append(p, Run{Kind: SwitchRun, At: s, N: cfg.SwitchesInStage(s)})
		}
	}
	return p
}

// Len returns the number of components.
func (p Population) Len() int {
	n := 0
	for _, r := range p {
		n += r.N
	}
	return n
}

// Bernoulli samples a fault set: each component dies independently with
// probability prob, drawn in population order.
func (p Population) Bernoulli(prob float64, rng *xrand.Rand) Set {
	var set Set
	if prob <= 0 {
		return set
	}
	for _, r := range p {
		for i := 0; i < r.N; i++ {
			if rng.Bool(prob) {
				r.Append(&set, i)
			}
		}
	}
	return set
}

// Plan is a nested family of fault sets: every component of a
// population draws one uniform severity at construction, and At(f)
// returns exactly the components whose severity falls below f. Each
// At(f) is marginally a Bernoulli(f) sample, and the sets are nested —
// At(f1) is a subset of At(f2) whenever f1 <= f2 — so a sweep over
// rising fractions degrades one fixed failure story instead of
// resampling the world at every point. simulate's degradation sweeps
// build one Plan per shard for exactly this reason.
type Plan struct {
	pop Population
	sev []float64 // one severity per component, population order
}

// NewPlan draws the severities of mode's population over cfg from rng.
func NewPlan(cfg topology.Config, mode Mode, rng *xrand.Rand) *Plan {
	return ModePopulation(cfg, mode).Plan(rng)
}

// Plan draws one severity per component from rng, in population order.
func (p Population) Plan(rng *xrand.Rand) *Plan {
	sev := make([]float64, p.Len())
	for i := range sev {
		sev[i] = rng.Float64()
	}
	return &Plan{pop: p, sev: sev}
}

// At returns the fault set of fraction f: every component whose
// severity is below f. f <= 0 is the empty set; f >= 1 kills the whole
// population.
func (p *Plan) At(f float64) Set {
	var set Set
	i := 0
	for _, r := range p.pop {
		for k := 0; k < r.N; k++ {
			if p.sev[i] < f {
				r.Append(&set, k)
			}
			i++
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
