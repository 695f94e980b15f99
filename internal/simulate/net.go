package simulate

import (
	"errors"
	"fmt"

	"edn/internal/analytic"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Net is one network under measurement together with the queue regime
// its packet engine runs: an EDN or the d-dilated delta it is compared
// against. Every harness in this package takes a Net, so one harness
// measures both sides of the paper's equal-redundancy comparison; the
// interface is sealed, and everything the two networks do differently
// — validation, port counts, result labels, engine construction, the
// fault plan of a degradation sweep, the churned population of a
// lifetime, the fault settings each can apply, and the default
// lifetime threshold — lives in its two implementations. Faults
// themselves are one model (internal/faults): both fabrics install the
// same masks and flood the same way.
type Net interface {
	String() string

	validate() error
	// ports returns the input and output terminal counts.
	ports() (inputs, outputs int)
	// label returns the (EDN, dilated) configuration pair a result
	// records; the side that is not measured stays zero.
	label() (topology.Config, dilated.Config)
	// regime returns the configured FIFO depth and policy.
	regime() (depth int, policy queuesim.Policy)
	// engine builds a packet engine, defaulting the arbiter factory to
	// factory when the queue options leave it nil.
	engine(factory switchfab.ArbiterFactory) (*queuesim.Network, error)
	// withFaults returns the network with its queue options' fault
	// masks replaced by m (nil: healthy).
	withFaults(m *faults.Masks) Net
	// withTables returns the network with its queue options' Tables
	// set to its fabric: the prebuilt one already there, else a fresh
	// build, so every engine and fault mask of a sweep shares one.
	withTables() (Net, error)
	// process draws a lifetime's failure/repair process over the
	// network's churned population from rng (see churned).
	process(spec lifecycle.Spec, rng *xrand.Rand) (*lifecycle.Process, error)
	// faultPlan draws one shard's nested fault plan for a degradation
	// sweep (see faultPlan), compiled over the fabric in the queue
	// options' Tables, which must be set (withTables).
	faultPlan(mode faults.Mode, rng *xrand.Rand) faultPlan
	// checkFaults rejects the fault settings the network cannot apply: a
	// failing population (spec.Mode) it does not have, or a lifetime's
	// blast overlay or repair windows when it has no structure for them.
	// A degradation sweep checks its mode alone.
	checkFaults(spec lifecycle.Spec) error
	// threshold is the default lifetime bandwidth floor per input at
	// the given load: half the fault-free analytic bandwidth.
	threshold(load float64) float64
}

// networkName renders the network a result's label pair records: the
// EDN configuration, or the dilated one when the EDN side is zero.
func networkName(cfg topology.Config, dcfg dilated.Config) string {
	if cfg == (topology.Config{}) {
		return dcfg.String()
	}
	return cfg.String()
}

// churnedFabric is one fabric of a lifetime shard: the running engine
// and the epoch step that advances its failure/repair process, compiles
// the resulting fault set over the engine's own descriptor and swaps it
// into the engine in place. step reports the dead fraction of the
// churned population and, when live is non-nil, fills it with the
// per-output reachability verdict and returns the reachable count.
type churnedFabric struct {
	eng  *queuesim.Network
	step func(live []bool) (reachable int, deadFrac float64, err error)
}

// churned builds net's lifetime fabric: a healthy engine (the lifetime
// starts healthy; epochs swap masks in) plus a failure/repair process
// drawn from rng.
func churned(net Net, spec lifecycle.Spec, rng *xrand.Rand, f switchfab.ArbiterFactory) (churnedFabric, error) {
	proc, err := net.process(spec, rng)
	if err != nil {
		return churnedFabric{}, err
	}
	eng, err := net.withFaults(nil).engine(f)
	if err != nil {
		return churnedFabric{}, err
	}
	return churnedFabric{eng: eng, step: func(live []bool) (int, float64, error) {
		m, err := eng.CompileFaults(proc.Step())
		if err != nil {
			return 0, 0, err
		}
		if err := eng.UpdateFaults(m); err != nil {
			return 0, 0, err
		}
		reach := 0
		if live != nil {
			reach = m.ReachableOutputsInto(live)
		}
		return reach, proc.DeadFraction(), nil
	}}, nil
}

// faultPlan is one shard's nested fault plan: at fraction f it returns
// the plan's fault set compiled into masks over the network's fabric.
type faultPlan func(f float64) (*faults.Masks, error)

// faultCensus is one shard's sampled fault state. deadWires counts dead
// stage-input and stage-output wires — a dilated delta's dead sub-wires
// are the latter, and its switches and single-wire inputs never fail.
type faultCensus struct {
	deadSwitches, deadWires float64
	reachable, liveInputs   float64 // fractions of outputs and inputs
	expected                float64
}

// census reads the fault census of masks m compiled for net.
func census(net Net, m *faults.Masks) faultCensus {
	inputs, outputs := net.ports()
	return faultCensus{
		deadSwitches: float64(m.DeadSwitches()),
		deadWires:    float64(m.DeadWires() + m.DeadPorts()),
		reachable:    float64(m.ReachableOutputs()) / float64(outputs),
		liveInputs:   float64(m.LiveInputCount()) / float64(inputs),
	}
}

func (c *faultCensus) add(o faultCensus) {
	c.deadSwitches += o.deadSwitches
	c.deadWires += o.deadWires
	c.reachable += o.reachable
	c.liveInputs += o.liveInputs
	c.expected += o.expected
}

func (c *faultCensus) scale(n float64) {
	c.deadSwitches /= n
	c.deadWires /= n
	c.reachable /= n
	c.liveInputs /= n
	c.expected /= n
}

// EDN is an EDN(a,b,c,l) measured on the packet engine under Queue.
type EDN struct {
	Config topology.Config
	Queue  queuesim.Options
}

func (n EDN) String() string                           { return n.Config.String() }
func (n EDN) validate() error                          { return n.Config.Validate() }
func (n EDN) ports() (int, int)                        { return n.Config.Inputs(), n.Config.Outputs() }
func (n EDN) label() (topology.Config, dilated.Config) { return n.Config, dilated.Config{} }
func (n EDN) regime() (int, queuesim.Policy)           { return n.Queue.Depth, n.Queue.Policy }
func (n EDN) threshold(load float64) float64 {
	return 0.5 * analytic.Bandwidth(n.Config, load) / float64(n.Config.Inputs())
}
func (n EDN) engine(f switchfab.ArbiterFactory) (*queuesim.Network, error) {
	return queuesim.New(n.Config, withFactory(n.Queue, f))
}

// withFactory returns q with its arbiter factory defaulted to f.
func withFactory(q queuesim.Options, f switchfab.ArbiterFactory) queuesim.Options {
	if q.Factory == nil {
		q.Factory = f
	}
	return q
}

func (n EDN) withFaults(m *faults.Masks) Net {
	n.Queue.Faults = m
	return n
}

func (n EDN) withTables() (Net, error) {
	f := n.Queue.Tables
	if f == nil {
		var err error
		if f, err = queuesim.EDNFabric(n.Config); err != nil {
			return nil, err
		}
	} else if err := checkTables(f, n.Config); err != nil {
		return nil, err
	}
	n.Queue.Tables = f
	return n, nil
}

// checkTables rejects a prebuilt fabric of another geometry, as the
// engine build would.
func checkTables(f *queuesim.Fabric, label fmt.Stringer) error {
	if f.Label != label {
		return fmt.Errorf("simulate: tables built for %v, network is %v", f.Label, label)
	}
	return nil
}

func (n EDN) process(spec lifecycle.Spec, rng *xrand.Rand) (*lifecycle.Process, error) {
	return lifecycle.New(n.Config, spec, rng)
}

// checkFaults rejects a mode outside the EDN's three populations.
func (EDN) checkFaults(spec lifecycle.Spec) error {
	if err := faults.CheckMode(spec.Mode); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	return nil
}

func (n EDN) faultPlan(mode faults.Mode, rng *xrand.Rand) faultPlan {
	plan := faults.NewPlan(n.Config, mode, rng)
	return func(f float64) (*faults.Masks, error) {
		return faults.CompileFabric(n.Config, n.Queue.Tables.Stages, plan.At(f))
	}
}

// Dilated is a d-dilated radix-b delta measured on the packet engine
// under Queue. Its fault population is always the sub-wires, the
// network's entire redundancy budget.
type Dilated struct {
	Config dilated.Config
	Queue  queuesim.Options
}

func (n Dilated) String() string                           { return n.Config.String() }
func (n Dilated) validate() error                          { return n.Config.Validate() }
func (n Dilated) ports() (int, int)                        { return n.Config.Ports(), n.Config.Ports() }
func (n Dilated) label() (topology.Config, dilated.Config) { return topology.Config{}, n.Config }
func (n Dilated) regime() (int, queuesim.Policy)           { return n.Queue.Depth, n.Queue.Policy }
func (n Dilated) threshold(load float64) float64           { return 0.5 * n.Config.PA(load) * load }

func (n Dilated) engine(f switchfab.ArbiterFactory) (*queuesim.Network, error) {
	eng, err := dilatedsim.New(n.Config, withFactory(n.Queue, f))
	if err != nil {
		return nil, err
	}
	return eng.Network, nil
}

func (n Dilated) withFaults(m *faults.Masks) Net {
	n.Queue.Faults = m
	return n
}

func (n Dilated) withTables() (Net, error) {
	f := n.Queue.Tables
	if f == nil {
		var err error
		if f, err = dilatedsim.Fabric(n.Config); err != nil {
			return nil, err
		}
	} else if err := checkTables(f, n.Config); err != nil {
		return nil, err
	}
	n.Queue.Tables = f
	return n, nil
}

// process churns the sub-wires on spec's clocks; checkFaults has
// rejected every setting that would need more.
func (n Dilated) process(spec lifecycle.Spec, rng *xrand.Rand) (*lifecycle.Process, error) {
	return dilatedsim.NewChurn(n.Config, spec.MTBF, spec.MTTR, spec.Timing, rng)
}

// checkFaults rejects what a dilated delta would otherwise drop without
// a word: its one failing population is the sub-wires (WireFaults), and
// it has no switch blocks to blast and no repair batching.
func (n Dilated) checkFaults(spec lifecycle.Spec) error {
	var errs []error
	if spec.Mode != faults.WireFaults {
		errs = append(errs, fmt.Errorf("simulate: fault mode %v is not a dilated population (a dilated delta fails only by sub-wires: want wires)", spec.Mode))
	}
	if spec.BlastRate > 0 {
		errs = append(errs, fmt.Errorf("simulate: blast rate %g is not supported on a dilated delta (it has no switch blocks to blast)", spec.BlastRate))
	}
	if spec.RepairWindow > 1 {
		errs = append(errs, fmt.Errorf("simulate: repair window %d is not supported on a dilated delta (it repairs every epoch)", spec.RepairWindow))
	}
	return errors.Join(errs...)
}

func (n Dilated) faultPlan(_ faults.Mode, rng *xrand.Rand) faultPlan {
	plan := dilatedsim.SubWires(n.Config).Plan(rng)
	return func(f float64) (*faults.Masks, error) {
		return dilatedsim.CompileFabric(n.Queue.Tables, plan.At(f))
	}
}
