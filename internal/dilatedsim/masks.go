package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/xrand"
)

// Masks is a compiled dilated fault set: faults.Masks over the dilated
// descriptor, whose dead stage-output wires (DeadPorts) are the dead
// sub-wires. The packet engine runs under them, and
// faults.ExpectedUniformBandwidth walks the same descriptor and rows for
// the analytic prediction, as it does for an EDN's masks.
type Masks = faults.Masks

// SubWires returns the dilated delta's fault population: every
// sub-wire, as the output wires of switch stages 1..l, in boundary,
// group, wire order. Sub-wire (boundary i, group g, wire w) is
// faults.PortID{Stage: i, Switch: g/b, Bucket: g%b, Wire: w}. Its
// Bernoulli, Plan and lifecycle.Process are the dilated fault sampler,
// nested sweep and renewal churn.
func SubWires(cfg dilated.Config) faults.Population {
	p := make(faults.Population, cfg.L)
	for bd := range p {
		p[bd] = faults.Run{Kind: faults.PortRun, At: bd + 1, N: cfg.Ports() * cfg.D, Buckets: cfg.B, Wires: cfg.D}
	}
	return p
}

// Compile validates set against cfg and folds it into availability
// masks over the dilated descriptor, whose tables the masks retain. Only
// sub-wires can fail: a dead switch, a stage-input wire or an output
// port is an error. A zero set compiles to the empty mask; duplicate
// sub-wires are idempotent.
func Compile(cfg dilated.Config, set faults.Set) (*Masks, error) {
	f, err := Fabric(cfg)
	if err != nil {
		return nil, err
	}
	return CompileFabric(f, set)
}

// CompileFabric is Compile over f, a dilated delta's prebuilt fabric
// (Fabric, or the geometry cache's), so a sweep that compiles many
// fault sets builds the descriptor once.
func CompileFabric(f *queuesim.Fabric, set faults.Set) (*Masks, error) {
	cfg, ok := f.Label.(dilated.Config)
	if !ok {
		return nil, fmt.Errorf("dilatedsim: fabric %v is not a dilated delta", f.Label)
	}
	if len(set.Switches) > 0 || len(set.Wires) > 0 {
		return nil, fmt.Errorf("dilatedsim: %v fails only by sub-wires, not switches or stage-input wires", cfg)
	}
	for _, id := range set.Ports {
		if id.Stage > cfg.L {
			return nil, fmt.Errorf("dilatedsim: port of stage %d is not a sub-wire (stages 1..%d)", id.Stage, cfg.L)
		}
	}
	return faults.CompileFabric(cfg, f.Stages, set)
}

// NewChurn validates the renewal parameters and returns lifecycle's
// renewal process over the SubWires population, its initial phases
// drawn from rng: every sub-wire runs an independent
// alternating-renewal clock with the given MTBF/MTTR and timing, so a
// lifetime comparison churns both networks' redundancy with identically
// distributed outages. All sub-wires start alive, and Step returns the
// dead ones in the vocabulary Compile consumes.
func NewChurn(cfg dilated.Config, mtbf, mttr float64, timing lifecycle.Timing, rng *xrand.Rand) (*lifecycle.Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return lifecycle.NewProcess(SubWires(cfg), lifecycle.Spec{MTBF: mtbf, MTTR: mttr, Timing: timing}, rng)
}
