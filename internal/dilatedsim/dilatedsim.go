// Package dilatedsim is the d-dilated delta fabric of the shared packet
// engine in internal/queuesim — the measured counterpart of the
// mean-field acceptance model in internal/dilated. With it the paper's
// equal-redundancy comparison (EDN versus the dilated delta spending
// the same wire budget on link replication) runs as two measurements of
// the same replayed packet streams instead of a measurement against a
// model, which is what lets the comparison speak to latency tails and
// lifetime churn.
//
// A d-dilated delta(b,l) is the plain delta network EDN(b,b,1,l) with
// every interstage link replicated d times: stage 1 switches are
// H(b -> b x d), interior stages H(bd -> b x d), and each single-wire
// output port accepts one of the up-to-d arrivals on its final link
// group. The package makes that structural statement literal.
// Fabric takes the group-level interstage wiring from
// topology.Config{b,b,1,l} (the EDN family's c=1 corner) and expands it
// sub-wire-wise into the queuesim.Fabric New runs: l switch stages
// whose buckets hold d sub-wires, then the output ports as a retire
// stage with one bucket per switch. At d=1 the network is bit-for-bit
// the plain delta queuesim builds from the EDN fabric, and the
// equivalence test pins exactly that.
//
// This package holds what is specific to the dilated fabric: its
// fabric builder, a thin typed face over the shared engine (Config
// returns a dilated.Config), and its sub-wires in the one fault model.
// A sub-wire is a stage-output wire (faults.PortID) of the descriptor,
// so a dilated fault set is a faults.Set, Masks are faults.Masks,
// SubWires is the population every sampler, plan and renewal process
// draws from (NewChurn is its lifecycle.Process), and Compile only adds
// the check that a set names nothing but sub-wires.
// Everything else — depths, policies, arbitration, stranding and
// parking, fault swaps, probes and anatomy — is queuesim's, with one
// fabric-specific rule: a delta's switch path is unique (only the
// sub-wire within each link group is free), so under faults a packet
// whose path crosses a bucket with no live sub-wire is parked for as
// long as the mask stands — dilation is redundancy without path
// diversity, which is precisely the paper's point against it.
package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/queuesim"
)

// NoRequest marks an idle input in an injection vector.
const NoRequest = queuesim.NoRequest

// Unbounded selects per-sub-wire FIFOs that grow without limit.
const Unbounded = queuesim.Unbounded

// Policy is the blocked-packet discipline, shared with queuesim so the
// two fabrics are configured with the same vocabulary.
type Policy = queuesim.Policy

// Backpressure retains blocked packets; Drop discards them.
const (
	Backpressure = queuesim.Backpressure
	Drop         = queuesim.Drop
)

// Totals are lifetime packet counters, the same ledger as queuesim's:
// Injected == Refused + Delivered + Dropped + Stranded + Queued() after
// every cycle and every UpdateFaults.
type Totals = queuesim.Totals

// CycleStats are the Totals deltas of one Cycle call plus the cycle's
// parked-on-dead census, with queuesim's meaning throughout.
type CycleStats = queuesim.CycleStats

// Options configures a dilated queueing network: the engine's own
// options, so one value configures either fabric. Faults are sub-wire
// masks (see Compile), and Tables, when set, is the prebuilt fabric of
// the same dilated Config (see Fabric).
type Options = queuesim.Options

// Network is a queueing dilated delta: the shared engine behind the
// dilated fabric's typed face. Every engine method — Cycle, Drain,
// UpdateFaults, InputFree, Totals, Latency, SetProbe, SetAnatomy,
// SetDeliveryHook and the rest — is queuesim's. It is not safe for concurrent use; the
// sweep harness builds one per shard.
type Network struct {
	*queuesim.Network
	dcfg dilated.Config
}

// New builds a queueing network over dcfg: over opts.Tables when set,
// which must be dcfg's fabric, and over Fabric(dcfg) otherwise. See
// Options for the depth and policy semantics.
func New(dcfg dilated.Config, opts Options) (*Network, error) {
	f := opts.Tables
	if f == nil {
		var err error
		if f, err = Fabric(dcfg); err != nil {
			return nil, err
		}
	} else if f.Label != dcfg {
		return nil, fmt.Errorf("dilatedsim: tables built for %v, network is %v", f.Label, dcfg)
	}
	net, err := queuesim.NewFabric(f, opts)
	if err != nil {
		return nil, err
	}
	return &Network{Network: net, dcfg: dcfg}, nil
}

// Config returns the network's dilated configuration.
func (n *Network) Config() dilated.Config { return n.dcfg }
