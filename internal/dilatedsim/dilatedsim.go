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
// group. The package makes that structural statement literal. Tables
// takes the group-level interstage wiring from topology.Config{b,b,1,l}
// (the EDN family's c=1 corner) and expands it sub-wire-wise, and New
// hands queuesim a per-stage descriptor: l switch stages whose buckets
// hold d sub-wires, then the output ports as a retire stage with one
// bucket per switch. At d=1 the network is bit-for-bit the plain delta
// queuesim builds from topology tables, and the equivalence test pins
// exactly that.
//
// This package holds what is specific to the dilated fabric: the
// sub-wire fault model (Masks, Compile, Plan, Churn), the routing
// Tables, and a thin typed face over the shared engine (Config returns
// a dilated.Config, UpdateFaults takes dilatedsim Masks). Everything
// else — depths, policies, arbitration, stranding and parking, probes
// and anatomy — is queuesim's, with one fabric-specific rule: a delta's
// switch path is unique (only the sub-wire within each link group is
// free), so under faults a packet whose path crosses a bucket with no
// live sub-wire is parked for as long as the mask stands — dilation is
// redundancy without path diversity, which is precisely the paper's
// point against it.
package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
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

// Options configures a dilated queueing network.
type Options struct {
	// Depth is the per-sub-wire FIFO depth: >= 1 bounded, Unbounded (-1)
	// for infinite buffers, 0 for the unbuffered single-cycle corner.
	Depth int
	// Policy is the blocked-packet discipline (default Backpressure).
	Policy Policy
	// Factory builds one arbiter per physical switch (stages 1..L) and
	// one per output port; nil selects input-label priority via the
	// fused fast path.
	Factory switchfab.ArbiterFactory
	// LatencyBuckets and LatencyBucketWidth shape the latency histogram
	// (defaults: 1024 buckets of 1 cycle).
	LatencyBuckets     int
	LatencyBucketWidth float64
	// Faults disables sub-wires (see Compile): packets only advance onto
	// live sub-wires and packets queued on dead ones are stranded per
	// policy. Nil or empty means fully live. UpdateFaults swaps the
	// masks of a running network in place.
	Faults *Masks
	// Tables, when non-nil, supplies prebuilt routing tables for the
	// same dilated Config: the network shares the read-only slices
	// instead of materializing its own, skipping the dominant
	// O(ports*d) build cost. Must have been built for the identical
	// Config; results are bit-for-bit those of a fresh build.
	Tables *Tables
}

// Network is a queueing dilated delta: the shared engine behind the
// dilated fabric's typed face. Every engine method — Cycle, Drain,
// InputFree, Totals, Latency, SetProbe, SetAnatomy, SetDeliveryHook and
// the rest — is queuesim's. It is not safe for concurrent use; the
// sweep harness builds one per shard.
type Network struct {
	*queuesim.Network
	dcfg dilated.Config
}

// New builds a queueing network over dcfg. See Options for the depth
// and policy semantics.
func New(dcfg dilated.Config, opts Options) (*Network, error) {
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	t := opts.Tables
	if t != nil && t.Config() != dcfg {
		return nil, fmt.Errorf("dilatedsim: tables built for %v, network is %v", t.Config(), dcfg)
	}
	if t == nil {
		var err error
		if t, err = NewTables(dcfg); err != nil {
			return nil, err
		}
	}
	b, d, l := dcfg.B, dcfg.D, dcfg.L
	ports := dcfg.Ports()
	logB := topology.Log2(b)
	st := make([]queuesim.Stage, l+1)
	for s := 1; s <= l; s++ {
		width := b * d
		if s == 1 {
			width = b // single-wire input ports
		}
		st[s-1] = queuesim.Stage{
			Switches: ports / b, Width: width, Buckets: b, Wires: d,
			Shift: uint((l - s) * logB), Mask: uint32(b - 1), Table: t.subTab[s-1],
		}
	}
	// The output ports: each retires at most one packet per cycle from
	// the d sub-wires of its final link group.
	st[l] = queuesim.Stage{Switches: ports, Width: d, Buckets: 1, Wires: 1}
	net, err := queuesim.NewFabric(queuesim.Fabric{Name: "dilatedsim", Label: dcfg, Stages: st, Settle: queuesim.SettleBySweep}, queuesim.Options{
		Depth: opts.Depth, Policy: opts.Policy, Factory: opts.Factory,
		LatencyBuckets: opts.LatencyBuckets, LatencyBucketWidth: opts.LatencyBucketWidth,
	})
	if err != nil {
		return nil, err
	}
	n := &Network{Network: net, dcfg: dcfg}
	if err := n.UpdateFaults(opts.Faults); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's sub-wire availability masks in
// place: packets keep flowing through the same rings, tables and
// arbiter state while the set of live sub-wires changes under them —
// the epoch primitive of a lifetime simulation. A nil or empty mask
// restores the unmasked fast paths bit-for-bit; the swap allocates
// nothing.
//
// Packets already queued on a sub-wire the new mask disables are
// stranded per policy: under Drop they are discarded immediately and
// counted in Totals.Stranded; under Backpressure they stay parked in
// place — skipped by arbitration, reported each cycle via
// CycleStats.ParkedOnDead — and resume unharmed if a later update
// repairs the sub-wire. Inputs are single wires and cannot die in the
// sub-wire fault model. Masks must have been compiled for this
// network's configuration. Not safe to call concurrently with Cycle.
func (n *Network) UpdateFaults(m *Masks) error {
	if m.Empty() {
		n.UpdateLive(nil, nil)
		return nil
	}
	if got := m.Config(); got != n.dcfg {
		return fmt.Errorf("dilatedsim: masks compiled for %v, network is %v", got, n.dcfg)
	}
	n.UpdateLive(nil, m.rows)
	return nil
}

// Config returns the network's dilated configuration.
func (n *Network) Config() dilated.Config { return n.dcfg }
