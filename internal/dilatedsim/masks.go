package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/xrand"
)

// Masks is a compiled dilated fault set: faults.Masks over the dilated
// descriptor, whose dead stage-output wires (DeadPorts) are the dead
// sub-wires. It is the simulator-facing sibling of dilated.Degraded,
// which folds the same faults into capacity histograms for the
// mean-field recursion — a packet simulator must know *which* sub-wire
// is dead, not just how many.
type Masks = faults.Masks

// SubWires returns the dilated delta's fault population: every
// sub-wire, as the output wires of switch stages 1..l, in
// dilated.BernoulliSubWires order (boundaries, groups, wires
// ascending).
func SubWires(cfg dilated.Config) faults.Population {
	p := make(faults.Population, cfg.L)
	for bd := range p {
		p[bd] = faults.Run{Kind: faults.PortRun, At: bd + 1, N: cfg.Ports() * cfg.D, Buckets: cfg.B, Wires: cfg.D}
	}
	return p
}

// Compile validates set against cfg and folds it into availability
// masks over the dilated descriptor, whose tables the masks retain. A
// zero set compiles to the empty mask; duplicate sub-wires are
// idempotent, mirroring dilated.CompileFaults.
func Compile(cfg dilated.Config, set dilated.FaultSet) (*Masks, error) {
	f, err := Fabric(cfg)
	if err != nil {
		return nil, err
	}
	ports := make([]faults.PortID, len(set.SubWires))
	for i, id := range set.SubWires {
		switch {
		case id.Boundary < 1 || id.Boundary > cfg.L:
			return nil, fmt.Errorf("dilatedsim: boundary %d out of range [1,%d]", id.Boundary, cfg.L)
		case id.Group < 0 || id.Group >= cfg.Ports():
			return nil, fmt.Errorf("dilatedsim: group %d out of range [0,%d)", id.Group, cfg.Ports())
		case id.Wire < 0 || id.Wire >= cfg.D:
			return nil, fmt.Errorf("dilatedsim: sub-wire %d out of range [0,%d)", id.Wire, cfg.D)
		}
		ports[i] = faults.PortID{Stage: id.Boundary, Switch: id.Group / cfg.B, Bucket: id.Group % cfg.B, Wire: id.Wire}
	}
	return faults.CompileFabric(cfg, f.Stages, faults.Set{Ports: ports})
}

// MustCompile is Compile for tests and examples with known-good sets.
func MustCompile(cfg dilated.Config, set dilated.FaultSet) *Masks {
	m, err := Compile(cfg, set)
	if err != nil {
		panic(err)
	}
	return m
}

// subWires appends the sub-wires named by set's ports to dst.
func subWires(cfg dilated.Config, set faults.Set, dst []dilated.SubWireID) dilated.FaultSet {
	for _, id := range set.Ports {
		dst = append(dst, dilated.SubWireID{Boundary: id.Stage, Group: id.Switch*cfg.B + id.Bucket, Wire: id.Wire})
	}
	return dilated.FaultSet{SubWires: dst}
}

// Plan is a nested family of dilated fault sets: faults.Plan over the
// SubWires population, so At(f1) is a subset of At(f2) whenever
// f1 <= f2 — the same paired comparison the EDN side of a sweep gets.
type Plan struct {
	cfg  dilated.Config
	plan *faults.Plan
}

// NewPlan draws the per-sub-wire severities for cfg from rng.
func NewPlan(cfg dilated.Config, rng *xrand.Rand) *Plan {
	return &Plan{cfg: cfg, plan: SubWires(cfg).Plan(rng)}
}

// At returns the fault set of fraction f: every sub-wire whose severity
// is below f.
func (p *Plan) At(f float64) dilated.FaultSet { return subWires(p.cfg, p.plan.At(f), nil) }

// Churn is lifecycle's renewal process over the SubWires population:
// every sub-wire runs an independent alternating-renewal clock with the
// given MTBF/MTTR and timing, so a lifetime comparison churns both
// networks' redundancy with identically distributed outages. It is not
// safe for concurrent use.
type Churn struct {
	*lifecycle.Process
	cfg dilated.Config
	set dilated.FaultSet // reused backing, valid until the next Step
}

// NewChurn validates the renewal parameters and draws the initial
// sub-wire phases from rng. All sub-wires start alive.
func NewChurn(cfg dilated.Config, mtbf, mttr float64, timing lifecycle.Timing, rng *xrand.Rand) (*Churn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := lifecycle.NewProcess(SubWires(cfg), lifecycle.Spec{MTBF: mtbf, MTTR: mttr, Timing: timing}, rng)
	if err != nil {
		return nil, err
	}
	return &Churn{Process: p, cfg: cfg}, nil
}

// Step advances one epoch and returns the dead sub-wires, in the
// vocabulary Compile consumes. The set reuses the churn's backing
// slice: it is valid until the next Step call.
func (c *Churn) Step() dilated.FaultSet {
	c.set = subWires(c.cfg, c.Process.Step(), c.set.SubWires[:0])
	return c.set
}
