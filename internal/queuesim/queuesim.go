// Package queuesim is the one packet engine of the repository: the EDN
// and its equal-redundancy comparator, the d-dilated delta, are two
// fabrics it runs, and its unbuffered corner is the paper's
// circuit-switched network cycle. Every stage-input wire carries a
// FIFO: packets advance one stage per cycle, losers wait (or drop), and
// each packet carries its injection timestamp so the simulator measures
// what the closed forms cannot — queueing delay, tail latency and
// saturation throughput under temporally correlated load.
//
// A network is built from a Fabric: a per-stage descriptor
// (topology.Stage) of switches whose output buckets hold
// interchangeable wires, joined by flat int32 interstage tables, the
// last stage retiring onto the terminals. New runs the EDN's
// descriptor, topology.Config.Fabric (hyperbar buckets of c wires, then
// the c x c crossbars as the retire stage with c buckets per switch);
// internal/dilatedsim builds the dilated delta's (buckets of d
// sub-wires, then the output ports as a retire stage with one bucket
// per switch). Faults are one model for both: internal/faults compiles
// the dead components of any descriptor into the masks UpdateFaults
// installs. Per-stage routing digits are shift/mask slices of the
// destination (Section 2's digit retirement), and head-of-line
// arbitration per switch uses the switchfab arbiter orders (the
// nil-factory default takes the fused priority fast path). Every FIFO
// of every stage boundary lives in one ringbuf.Rings store, sized at
// construction, so the per-cycle advance is allocation-free in steady
// state for bounded depths (BenchmarkQueueCycle pins this at 0
// allocs/op). Each stage's advance visits only its candidate FIFOs —
// those that hold a packet and sit on a live wire — by walking the
// store's occupancy bitmap with the dead-wire bitmap masked out, a
// whole 64-bit word at a time; a switch with no candidate is skipped,
// and a candidate's switch is its index shifted by the stage's
// power-of-two width. The fused priority path takes a switch's
// candidates in ascending order, an arbiter in its own order.
//
// Depth semantics tie the family together:
//
//   - Depth >= 1: bounded per-wire FIFOs. A packet advances only onto an
//     output wire whose downstream FIFO has room (at most one packet per
//     wire per cycle); under Backpressure blocked packets wait at their
//     FIFO head, under Drop they are discarded.
//   - Depth == Unbounded: FIFOs grow without limit — the infinite
//     buffering idealization.
//   - Depth == 0: no interstage buffering at all. Each offered packet
//     traverses every stage within one cycle, a wave sweep in which a
//     bucket grants at most its wire count; Backpressure then means a
//     blocked packet is resubmitted from its input next cycle — exactly
//     the Section 4/5.1 closed-loop regime — and Drop is the memoryless
//     Section 3.2 model behind Equation 4, losers vanishing. Outcomes
//     settle after the sweep, in input order, on every fabric. A
//     blocked Backpressure packet is parked when its input wire, its
//     destination terminal or a bucket on its switch path has no live
//     wire: all wires of a bucket land on one downstream switch (for
//     the EDN, Equation 1's interstage permutation fixes the wire
//     bits), so the (input, destination) pair pins the switch path on
//     either fabric. Verdict reads this corner per request: the
//     cycle-level Network of the root package, the Monte-Carlo PA
//     harnesses and the Section 4/5 resubmission models all run on it.
//
// The depth-1 Drop configuration is the bridge between the two worlds:
// batches march through the pipeline in lockstep, one stage per cycle,
// without ever interacting, so its per-batch grant decisions — and
// therefore its bandwidth and per-stage blocking — are bit-identical to
// the depth-0 sweep's, just time-shifted by the pipeline fill. The
// equivalence tests pin this across geometries, arbiters and faults.
package queuesim

import (
	"fmt"
	"math/bits"

	"edn/internal/anatomy"
	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/ringbuf"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/topology"
)

// NoRequest marks an idle input in an injection vector.
const NoRequest = -1

// Unbounded selects per-wire FIFOs that grow without limit.
const Unbounded = ringbuf.Unbounded

// Policy selects what happens to a head-of-line packet that cannot
// advance this cycle (it lost arbitration, or every wire of its bucket
// leads to a full downstream FIFO).
type Policy int

const (
	// Backpressure retains blocked packets at the head of their FIFO to
	// retry next cycle — the lossless store-and-forward discipline.
	Backpressure Policy = iota
	// Drop discards blocked packets, the circuit-switched discipline of
	// the unbuffered engine.
	Drop
)

// String renders the policy for reports.
func (p Policy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a queueing network.
type Options struct {
	// Depth is the per-wire FIFO depth: >= 1 bounded, Unbounded (-1) for
	// infinite buffers, 0 for the unbuffered single-cycle corner.
	Depth int
	// Policy is the blocked-packet discipline (default Backpressure).
	Policy Policy
	// Factory builds one arbiter per physical switch; nil selects the
	// paper's input-label priority rule via the fused fast path.
	Factory switchfab.ArbiterFactory
	// LatencyBuckets and LatencyBucketWidth shape the latency histogram
	// (defaults: 1024 buckets of 1 cycle). Latencies beyond the last
	// bucket are still counted exactly in mean and max but degrade the
	// top quantiles toward the maximum.
	LatencyBuckets     int
	LatencyBucketWidth float64
	// Faults disables network components (see internal/faults), on
	// either fabric: packets only advance onto live wires, injections at
	// dead inputs are refused at the source, and a head-of-line packet
	// whose bucket has no live wire left waits (Backpressure) or dies
	// (Drop). A packet addressed to a dead output terminal can never
	// retire while the fault stands — under Backpressure it parks at the
	// retire stage's head, counted every cycle in
	// CycleStats.ParkedOnDead, so degraded-mode measurements normally
	// pair immutable faults with Drop. Nil or empty means fully live and
	// changes nothing. The masks must have been compiled over a
	// descriptor of the network's geometry; UpdateFaults swaps them on a
	// running network in place, which is how time-varying fault
	// processes (internal/lifecycle) drive this engine.
	Faults *faults.Masks
	// Tables, when non-nil, supplies the prebuilt fabric of the network
	// being built (EDNFabric, internal/dilatedsim's builder, or the
	// serve-layer geometry cache, which hands out either): the network
	// shares its read-only tables instead of materializing its own,
	// skipping the dominant O(wires) build cost. Its label must be the
	// network's geometry; results are bit-for-bit those of a fresh
	// build. NewFabric, which is handed its fabric, ignores it.
	Tables *Fabric
}

func (o Options) withDefaults() Options {
	if o.LatencyBuckets <= 0 {
		o.LatencyBuckets = 1024
	}
	if o.LatencyBucketWidth <= 0 {
		o.LatencyBucketWidth = 1
	}
	return o
}

// Totals are lifetime packet counters. They never reset, so the
// conservation invariant
//
//	Injected == Refused + Delivered + Dropped + Stranded + Queued()
//
// holds after every cycle and after every UpdateFaults — the property
// tests in queuesim_test.go and update_test.go assert it across
// geometries, depths, policies and fault timelines.
type Totals struct {
	Injected  int64 // packets offered at the inputs
	Refused   int64 // injections rejected at the input (FIFO or slot full)
	Delivered int64 // packets retired at their destination terminal
	Dropped   int64 // packets discarded mid-network (Policy Drop only)
	// Stranded counts packets discarded by UpdateFaults because their
	// FIFO's wire died while they were queued on it (Policy Drop only;
	// under Backpressure such packets stay parked and are reported per
	// cycle in CycleStats.ParkedOnDead instead).
	Stranded int64
}

// CycleStats are the Totals deltas of a single Cycle call, plus the
// cycle's dead-component congestion observation.
type CycleStats struct {
	Injected  int
	Refused   int
	Delivered int
	Dropped   int
	// ParkedOnDead is the number of queued packets that could not
	// advance this cycle because a dead component pins them in place
	// (Backpressure only; under Drop they are discarded and counted in
	// Dropped or Stranded): head-of-line packets aimed at a dead output
	// terminal or a bucket with no live wire left, plus packets queued
	// on wires that died under them. At depth 0 that is every blocked
	// packet whose input wire, destination terminal or switch-path
	// bucket is dead. It is an observation, not a flow —
	// the same parked packet is counted again every cycle it stays
	// parked — so conservation checks can assert on the parked
	// population directly instead of inferring it from a residue.
	// Parked packets are not lost: a later UpdateFaults that repairs the
	// component releases them.
	ParkedOnDead int
}

// Fabric is a fabric as the engine runs it: a per-stage descriptor
// (topology.Stage) whose buckets each send all their wires to one
// downstream switch, the property the depth-0 parking test walks on.
// Name prefixes the engine's error messages and Label, a comparable
// value, names the geometry in them; compiled fault masks carry the
// label of the descriptor they were compiled over, and UpdateFaults
// accepts only masks of the network's own. A Fabric is immutable once
// built, so one value can back any number of concurrently running
// networks.
type Fabric struct {
	Name   string
	Label  fmt.Stringer
	Stages []topology.Stage
}

// EDNFabric validates cfg and builds the EDN's fabric: its descriptor
// (topology.Config.Fabric), labelled by cfg.
func EDNFabric(cfg topology.Config) (*Fabric, error) {
	st, err := cfg.Fabric()
	if err != nil {
		return nil, err
	}
	return &Fabric{Name: "queuesim", Label: cfg, Stages: st}, nil
}

// Bytes returns the footprint of the fabric's interstage tables, the
// unit of the geometry cache's byte budget.
func (f *Fabric) Bytes() (b int64) {
	for _, st := range f.Stages {
		b += 4 * int64(len(st.Table))
	}
	return b
}

// Network is an instantiated queueing network. It is not safe for
// concurrent use; the sweep harness builds one per shard.
type Network struct {
	name    string
	label   fmt.Stringer
	st      []topology.Stage
	opts    Options
	stages  int
	inputs  int
	outputs int

	// Pipelined state (Depth != 0). fifo holds one FIFO (ring) per
	// stage-input wire across all boundaries: boundary s-1 (rings
	// base[s-1] on) feeds stage s; boundary 0 is the injection row.
	// occ[b] counts the packets boundary b holds.
	fifo ringbuf.Rings
	base []int // base[i] = first ring of boundary i, i in [0, stages-1]
	occ  []int64

	// Fault availability (nil = fully live), swapped between cycles by
	// UpdateFaults. live points at liveRows when any stage row is masked.
	// dead, a bitmap over the rings (pipelined only, all clear when
	// every wire is live), marks rings whose feeding wire the current
	// mask disables: their queued packets are stranded and their heads
	// are never candidates.
	// liveCap[s-1][sw*Buckets+bucket] counts the bucket's live wires
	// under the current mask, so the advance loop can tell "parked on a
	// dead bucket" from "blocked by contention" without rescanning the
	// row; deadDepth is the deepest stage holding a bucket whose count
	// is 0 (0 when none is), how far the depth-0 parking walk goes.
	liveIn         []bool
	live           [][]bool // [stage-1] stage-local output label availability
	liveRows       [][]bool
	dead           []uint64
	liveCap        [][]int32
	deadDepth      int
	strandedQueued int64 // packets parked in dead rings (Backpressure)

	factory      switchfab.ArbiterFactory
	fastPriority bool
	wshift       []uint                // [stage-1] log2 of the switch width
	arbiters     [][]switchfab.Arbiter // [stage-1][switch], lazily built
	used         []int32               // per-bucket wires consumed this cycle
	order        []int                 // arbiter-path arbitration order
	seen         []bool                // switchOrder's permutation check

	// Unbuffered state (Depth == 0): one in-flight slot per input. The
	// wave buffers carry each boundary's per-wire occupancy (origin
	// input, -1 empty) through the within-cycle stage sweep, and
	// waveOrder holds one switch's slice of it in arbitration order;
	// outcome holds each input's result (0 delivered, s blocked at stage
	// s), which settles after the sweep.
	pending   []int   // destination held by input i, or NoRequest
	pendAt    []int64 // injection cycle of the pending packet
	waveA     []int32
	waveB     []int32
	waveOrder []int32
	outcome   []int32

	now       int64
	queued    int64
	totals    Totals
	perStage  []int64 // drops per stage (Policy Drop)
	lat       *stats.Histogram
	idleBatch []int // all-NoRequest injection vector for Drain

	// deliver, when set, observes every retirement (see SetDeliveryHook).
	deliver func(dest int, inject int64)

	// probe, when set, flight-records sampled packets and per-stage heat
	// (see SetProbe). pendTrace holds the unbuffered corner's per-input
	// trace record handles (-1 = untraced), mirroring pending.
	probe     *probe.Probe
	pendTrace []int32

	// anat, when set, mirrors every FIFO and attributes each in-flight
	// packet's cycles to wait/block/service (see SetAnatomy).
	anat *anatomy.Collector
}

// New builds a queueing EDN over cfg: over opts.Tables when set, which
// must be cfg's fabric, and over EDNFabric(cfg) otherwise. See Options
// for the depth and policy semantics.
func New(cfg topology.Config, opts Options) (*Network, error) {
	f := opts.Tables
	if f == nil {
		var err error
		if f, err = EDNFabric(cfg); err != nil {
			return nil, err
		}
	} else if f.Label != cfg {
		return nil, fmt.Errorf("queuesim: tables built for %v, network is %v", f.Label, cfg)
	}
	return NewFabric(f, opts)
}

// NewFabric builds a queueing network over an arbitrary fabric and
// installs opts.Faults, which must have been compiled over a descriptor
// of the same label. The descriptor's tables are shared, never copied
// or written.
func NewFabric(f *Fabric, opts Options) (*Network, error) {
	if err := checkOptions(f.Name, opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	stages := len(f.Stages)
	last := f.Stages[stages-1]
	n := &Network{
		name:         f.Name,
		label:        f.Label,
		st:           f.Stages,
		opts:         opts,
		stages:       stages,
		inputs:       f.Stages[0].Switches * f.Stages[0].Width,
		outputs:      last.Switches * last.Buckets,
		factory:      opts.Factory,
		fastPriority: opts.Factory == nil,
		perStage:     make([]int64, stages),
		lat:          stats.NewHistogram(opts.LatencyBuckets, opts.LatencyBucketWidth),
		liveRows:     make([][]bool, stages),
		liveCap:      make([][]int32, stages-1),
		wshift:       make([]uint, stages),
		arbiters:     make([][]switchfab.Arbiter, stages),
	}
	if n.factory == nil {
		n.factory = switchfab.PriorityArbiters
	}
	width, buckets := 0, 0
	for s, st := range f.Stages {
		if st.Width < 1 || st.Width&(st.Width-1) != 0 {
			return nil, fmt.Errorf("%s: %v stage %d width %d is not a power of two", f.Name, f.Label, s+1, st.Width)
		}
		n.wshift[s] = uint(bits.TrailingZeros(uint(st.Width)))
		n.arbiters[s] = make([]switchfab.Arbiter, st.Switches)
		if s < stages-1 {
			n.liveCap[s] = make([]int32, st.Switches*st.Buckets)
		}
		width = max(width, st.Width)
		buckets = max(buckets, st.Buckets)
	}
	n.used = make([]int32, buckets)
	n.order = make([]int, width)
	n.seen = make([]bool, width)

	if opts.Depth == 0 {
		n.pending = make([]int, n.inputs)
		for i := range n.pending {
			n.pending[i] = NoRequest
		}
		n.pendAt = make([]int64, n.inputs)
		n.outcome = make([]int32, n.inputs)
		wave := 0
		for _, st := range f.Stages {
			wave = max(wave, st.Switches*st.Width)
		}
		n.waveA = make([]int32, wave)
		n.waveB = make([]int32, wave)
		n.waveOrder = make([]int32, width)
	} else {
		total := 0
		n.base = make([]int, stages)
		for s, st := range f.Stages {
			n.base[s] = total
			total += st.Switches * st.Width
		}
		// A bounded ring never outgrows its arena slots, so its pushes
		// take the inlined Put; an unbounded one starts with 4 slots and
		// grows alone through Push.
		stride := opts.Depth
		if stride == Unbounded {
			stride = 4
		}
		n.fifo = ringbuf.NewRings(total, stride)
		n.occ = make([]int64, stages)
		n.dead = make([]uint64, ringbuf.Words(total))
	}
	if err := n.UpdateFaults(opts.Faults); err != nil {
		return nil, err
	}
	return n, nil
}

func checkOptions(name string, opts Options) error {
	if opts.Depth < Unbounded {
		return fmt.Errorf("%s: depth %d invalid (want >= 1, 0, or Unbounded)", name, opts.Depth)
	}
	switch opts.Policy {
	case Backpressure, Drop:
	default:
		return fmt.Errorf("%s: unknown policy %d", name, int(opts.Policy))
	}
	return nil
}

// UpdateFaults swaps the network's availability masks in place, on
// either fabric: packets keep flowing through the same rings, tables
// and arbiter state while the set of live components changes under
// them — the epoch primitive of an availability-over-time simulation.
// A nil or empty mask restores the unmasked fast paths bit-for-bit. The
// swap allocates nothing.
//
// Packets already queued on a wire the new mask disables are stranded
// and handled by policy: under Drop they are discarded immediately and
// counted in Totals.Stranded; under Backpressure they stay parked in
// place — skipped by arbitration, reported each cycle via
// CycleStats.ParkedOnDead — and resume unharmed if a later update
// repairs the wire. Masks must have been compiled over a descriptor of
// this network's geometry (their Label; CompileFaults compiles over the
// network's own); on error the previous masks remain in effect. The
// engine reads the mask rows, never writes them. Not safe to call
// concurrently with Cycle.
func (n *Network) UpdateFaults(m *faults.Masks) error {
	if m.Empty() {
		m = nil
	} else if m.Label() != n.label {
		return fmt.Errorf("%s: masks compiled for %v, network is %v", n.name, m.Label(), n.label)
	}
	n.liveIn, n.live = m.LiveInputs(), nil
	for s := range n.liveRows {
		n.liveRows[s] = m.LiveStageOutputs(s + 1)
		if n.liveRows[s] != nil {
			n.live = n.liveRows
		}
	}
	n.refreshLive()
	return nil
}

// CompileFaults compiles set over the network's own descriptor, sharing
// its tables: the per-epoch compile of a lifetime, which rebuilds
// nothing.
func (n *Network) CompileFaults(set faults.Set) (*faults.Masks, error) {
	return faults.CompileFabric(n.label, n.st, set)
}

// refreshLive recomputes the engine's view of the current masks:
// per-bucket live-wire counts, the deepest stage with a fully dead
// bucket, and (pipelined) which rings sit on dead wires — the per-stage
// rows fold a wire's own death, its switch port and its downstream
// switch into one bit, and the ring is the buffer attached to that
// wire. Packets found queued in a dead ring are stranded per policy;
// the strand pass walks only the bitmap words that are both dead and
// occupied. O(wires) per mask swap, no allocations.
func (n *Network) refreshLive() {
	dead := n.dead // nil at depth 0
	clear(dead)
	if dead != nil {
		for w, ok := range n.liveIn {
			if !ok {
				dead[w>>6] |= 1 << (w & 63)
			}
		}
	}
	n.deadDepth = 0
	for s, caps := range n.liveCap {
		row, wires := n.liveRows[s], n.st[s].Wires
		for b := range caps {
			caps[b] = int32(wires)
		}
		if row == nil {
			continue
		}
		tab := n.st[s].Table
		for o, ok := range row {
			if ok {
				continue
			}
			b := o / wires
			caps[b]--
			if caps[b] == 0 {
				n.deadDepth = s + 1
			}
			if dead != nil {
				down := o
				if tab != nil {
					down = int(tab[o])
				}
				down += n.base[s+1] // the rings of boundary s+1
				dead[down>>6] |= 1 << (down & 63)
			}
		}
	}
	n.strandedQueued = 0
	drop := n.opts.Policy == Drop
	full := n.fifo.NonEmpty()
	for w, dw := range dead {
		for m := dw & full[w]; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			s := n.ringStage(i)
			stranded := int64(n.fifo.Len(i))
			if !drop {
				n.strandedQueued += stranded
				if n.probe != nil {
					for k := range int(stranded) {
						if pkt := n.fifo.At(i, k); pkt&ringbuf.TraceBit != 0 {
							n.probe.Hop(pkt, s, probe.EvPark, n.now)
						}
					}
				}
				continue
			}
			for n.fifo.Len(i) > 0 {
				pkt := n.fifo.Pop(i)
				if n.probe != nil && pkt&ringbuf.TraceBit != 0 {
					n.probe.Close(pkt, s, probe.EvStrand, n.now)
				}
				if n.anat != nil {
					n.anat.Strand(i, n.now)
				}
			}
			n.queued -= stranded
			n.occ[s-1] -= stranded
			n.totals.Stranded += stranded
		}
	}
}

// Config returns the EDN's configuration (the zero Config for other
// fabrics, whose constructors expose their own).
func (n *Network) Config() topology.Config {
	cfg, _ := n.label.(topology.Config)
	return cfg
}

// Stages returns the stage count, the retire stage included.
func (n *Network) Stages() int { return n.stages }

// Depth returns the configured FIFO depth.
func (n *Network) Depth() int { return n.opts.Depth }

// Policy returns the configured blocked-packet discipline.
func (n *Network) Policy() Policy { return n.opts.Policy }

// Now returns the number of cycles simulated so far.
func (n *Network) Now() int64 { return n.now }

// Queued returns the number of packets currently inside the network.
func (n *Network) Queued() int64 { return n.queued }

// Totals returns the lifetime packet counters.
func (n *Network) Totals() Totals { return n.totals }

// DroppedPerStage returns a copy of the per-stage drop counters
// (1-based stage s at index s-1; all zeros under Backpressure).
func (n *Network) DroppedPerStage() []int64 {
	return append([]int64(nil), n.perStage...)
}

// Latency returns the live delivery-latency histogram. Latency is
// measured in cycles from injection to retirement at the destination
// terminal: the pipelined network's floor is Stages() (one hop per
// cycle); the unbuffered corner's floor is 1 (whole-network transit in
// the injection cycle). The histogram keeps accumulating as the network
// runs; ResetLatency starts a fresh measurement window.
func (n *Network) Latency() *stats.Histogram { return n.lat }

// ResetLatency clears the latency histogram — typically called after
// warmup so measured quantiles exclude the fill transient. Queue state
// and lifetime totals are unaffected.
func (n *Network) ResetLatency() { n.lat.Reset() }

// SetDeliveryHook installs fn to be called once per retired packet,
// with the packet's destination terminal and its injection cycle
// truncated to the 32 bits the in-flight word carries (compare against
// int64(uint32(cycle))). The hook fires inside Cycle after the
// delivery is counted; it must not call back into the network. A nil
// fn removes the hook. Closed-loop drivers (internal/closedloop) use
// this to match deliveries to outstanding requests without adding any
// per-packet state; installing the hook once at construction keeps the
// steady-state advance allocation-free.
func (n *Network) SetDeliveryHook(fn func(dest int, inject int64)) { n.deliver = fn }

// ProbeMetrics names the per-stage heat metrics this engine reports,
// in the AddStage index order of the pm* constants.
var ProbeMetrics = []string{"occupancy", "hol_blocked", "parked", "dropped"}

const (
	pmOccupancy = iota
	pmHolBlocked
	pmParked
	pmDropped
)

// SetProbe attaches a flight-recorder probe (nil detaches). The probe
// observes without perturbing: every routing, arbitration and queueing
// decision is identical with or without it, and the nil check costs one
// predictable branch per site (BenchmarkProbeOff pins the nil path at
// 0 allocs/op). Heat rows are bound per stage; sampled packets carry
// ringbuf.TraceBit through the rings. Not safe to swap mid-cycle.
func (n *Network) SetProbe(p *probe.Probe) {
	n.probe = p
	if p == nil {
		return
	}
	p.Bind(n.stages, ProbeMetrics)
	if n.opts.Depth == 0 && n.pendTrace == nil {
		n.pendTrace = make([]int32, n.inputs)
	}
	for i := range n.pendTrace {
		n.pendTrace[i] = -1
	}
}

// SetAnatomy attaches a latency-anatomy collector (nil detaches),
// binding it to this network's ring geometry. Like the probe, the
// collector observes without perturbing — no routing, arbitration or
// queueing decision changes, and the detached path costs one branch
// per site (BenchmarkAnatomyOff pins it at 0 allocs/op). Not safe to
// swap mid-cycle.
func (n *Network) SetAnatomy(a *anatomy.Collector) {
	n.anat = a
	if a == nil {
		return
	}
	if n.opts.Depth == 0 {
		a.Bind(anatomy.Layout{Stages: n.stages, Inputs: n.inputs, Outputs: n.outputs})
		return
	}
	rings := n.fifo.Count()
	lay := anatomy.Layout{
		Stages: n.stages, Inputs: n.inputs, Outputs: n.outputs,
		Rings:      rings,
		RingStage:  make([]int32, rings),
		RingSwitch: make([]int32, rings),
		TermSwitch: make([]int32, n.outputs),
	}
	for i := range rings {
		s := n.ringStage(i)
		lay.RingStage[i] = int32(s)
		lay.RingSwitch[i] = int32((i - n.base[s-1]) >> n.wshift[s-1])
	}
	for t := range lay.TermSwitch {
		lay.TermSwitch[t] = int32(t / n.st[n.stages-1].Buckets)
	}
	a.Bind(lay)
}

// ringStage returns the 1-based stage fed by ring i.
func (n *Network) ringStage(i int) int {
	s := 1
	for s < len(n.base) && i >= n.base[s] {
		s++
	}
	return s
}

// recordHeat folds this cycle's occupancy census — the packets each
// stage's input boundary holds, kept per boundary as packets move —
// into the probe and closes the heat cycle. Only called with a probe
// attached; O(stages).
func (n *Network) recordHeat() {
	if n.opts.Depth == 0 {
		n.probe.AddStage(pmOccupancy, 0, float64(n.queued))
	} else {
		for b, q := range n.occ {
			n.probe.AddStage(pmOccupancy, b, float64(q))
		}
	}
	n.probe.EndCycle()
}

// InputFree reports whether input i can accept an injection this cycle:
// its stage-1 FIFO has room (pipelined) or its in-flight slot is empty
// (unbuffered). A dead input is never free. Closed-loop drivers poll it
// to offer exactly when the network can accept.
func (n *Network) InputFree(i int) bool {
	if n.liveIn != nil && !n.liveIn[i] {
		return false
	}
	if n.opts.Depth == 0 {
		return n.pending[i] == NoRequest
	}
	return n.fifo.HasSpace(i, n.opts.Depth)
}

// Cycle advances the network by one cycle and then injects dest:
// dest[i] is the destination terminal for a new packet entering input
// i, or NoRequest. Stages advance downstream-first, so a buffer slot
// freed this cycle is usable by the upstream stage in the same cycle
// and packets sustain one hop per cycle at full throughput. Injections
// that find their input full are counted as Refused and lost (an open
// loop drops at the source; closed-loop drivers use InputFree to offer
// only what fits).
func (n *Network) Cycle(dest []int) (CycleStats, error) {
	if len(dest) != n.inputs {
		return CycleStats{}, fmt.Errorf("%s: %v got %d injections, want %d inputs", n.name, n.label, len(dest), n.inputs)
	}
	// Validate the whole injection vector before touching any state: a
	// mid-cycle abort would leave the lifetime Totals out of step with
	// the queue contents and break the conservation invariant forever.
	// One unsigned compare per input: d+1 maps NoRequest to 0 and the
	// outputs to 1..outputs, and wraps every other negative d (and
	// MaxInt) beyond them.
	for i, d := range dest {
		if uint(d+1) > uint(n.outputs) {
			return CycleStats{}, fmt.Errorf("%s: input %d requests output %d out of range [0,%d)", n.name, i, d, n.outputs)
		}
	}
	n.now++
	var cs CycleStats
	var err error
	if n.opts.Depth == 0 {
		err = n.cycleUnbuffered(dest, &cs)
	} else {
		err = n.cyclePipelined(dest, &cs)
	}
	if n.probe != nil {
		n.recordHeat()
	}
	// Fold the deltas even when an arbiter aborted the cycle: every
	// packet moved so far is counted, the rest stay queued, so the
	// conservation invariant still holds.
	n.totals.Injected += int64(cs.Injected)
	n.totals.Refused += int64(cs.Refused)
	n.totals.Delivered += int64(cs.Delivered)
	n.totals.Dropped += int64(cs.Dropped)
	return cs, err
}

// cyclePipelined is the Depth != 0 cycle: every stage advances,
// downstream first, then dest is injected into the stage-1 FIFOs.
func (n *Network) cyclePipelined(dest []int, cs *CycleStats) error {
	for s := n.stages; s >= 1; s-- {
		if err := n.advanceStage(s, cs); err != nil {
			return err
		}
	}
	if n.strandedQueued != 0 {
		// Packets parked in dead rings never reach arbitration; they
		// still count as parked-on-dead every cycle they wait.
		cs.ParkedOnDead += int(n.strandedQueued)
	}
	depth := n.opts.Depth
	entered := 0
	for i, d := range dest {
		if d == NoRequest {
			continue
		}
		cs.Injected++
		if n.liveIn != nil && !n.liveIn[i] {
			cs.Refused++ // severed input wire: refused at the source
			continue
		}
		if !n.fifo.HasSpace(i, depth) {
			cs.Refused++
			continue
		}
		pkt := ringbuf.Pack(d, n.now)
		if n.probe != nil {
			pkt = n.probe.TagInject(i, pkt, n.now)
		}
		if depth == Unbounded {
			n.fifo.Push(i, pkt)
		} else {
			n.fifo.Put(i, pkt)
		}
		entered++
		if n.anat != nil {
			n.anat.Inject(i, i, d, n.now)
		}
	}
	n.queued += int64(entered)
	n.occ[0] += int64(entered)
	if n.anat != nil {
		n.anat.EndCycle(n.now)
	}
	return nil
}

// Drain runs idle cycles (no injections) until the network empties,
// returning how many cycles it took. It fails if the network still
// holds packets after maxCycles — under Backpressure with bounded
// depth the network always drains, so hitting the cap indicates a
// deadlocked caller expectation, not a simulator state.
func (n *Network) Drain(maxCycles int) (int, error) {
	if n.idleBatch == nil {
		n.idleBatch = make([]int, n.inputs)
		for i := range n.idleBatch {
			n.idleBatch[i] = NoRequest
		}
	}
	for c := 0; c < maxCycles; c++ {
		if n.queued == 0 {
			return c, nil
		}
		if _, err := n.Cycle(n.idleBatch); err != nil {
			return c, err
		}
	}
	if n.queued == 0 {
		return maxCycles, nil
	}
	return maxCycles, fmt.Errorf("%s: %d packets still queued after %d drain cycles", n.name, n.queued, maxCycles)
}

// retire records one delivery.
func (n *Network) retire(pkt uint64, cs *CycleStats) {
	n.lat.Add(ringbuf.Latency(pkt, n.now))
	n.queued--
	cs.Delivered++
	if n.probe != nil {
		n.probe.Close(pkt, n.stages, probe.EvDeliver, n.now)
	}
	if n.deliver != nil {
		n.deliver(ringbuf.Dest(pkt), int64(uint32(pkt>>32)))
	}
}

// switchOrder returns the arbitration order of switch sw of stage s
// for one cycle (nil = natural order). The fused priority default
// never calls it, and the other paths call it only for busy switches,
// so a stateful arbiter advances once per cycle its switch is busy, at
// every depth. An order that is not a permutation of [0, width) is an
// error: arbitrating by it would skip or double-grant inputs. The
// scratch is reset to -1 first, so an entry the arbiter leaves unwritten
// fails the check instead of reusing the last switch's order.
func (n *Network) switchOrder(s, sw, width int) ([]int, error) {
	a := n.arbiters[s-1][sw]
	if a == nil {
		a = n.factory()
		n.arbiters[s-1][sw] = a
	}
	if _, ok := a.(switchfab.PriorityArbiter); ok {
		return nil, nil
	}
	order := n.order[:width]
	for i := range order {
		order[i] = -1
	}
	a.OrderInto(order)
	seen := n.seen[:width]
	defer clear(seen)
	for _, p := range order {
		if p < 0 || p >= width || seen[p] {
			return nil, fmt.Errorf("%s: %v stage %d switch %d: arbiter order %v is not a permutation of [0,%d)", n.name, n.label, s, sw, order, width)
		}
		seen[p] = true
	}
	return order, nil
}

// advanceStage runs one cycle of stage s (1-based): head-of-line
// arbitration per switch over the boundary s-1 FIFOs, winners crossing
// the interstage table into the boundary s FIFOs (or retiring at the
// last stage), losers retained or dropped per policy. It visits only
// the switches that hold a candidate — a packet on a live wire — and
// only their candidates: in ascending order on the fused priority
// default, in the arbiter's order otherwise.
func (n *Network) advanceStage(s int, cs *CycleStats) error {
	st := &n.st[s-1]
	retire := s == n.stages
	width, buckets, capacity := st.Width, st.Buckets, st.Wires
	shift, mask, tab := st.Shift, st.Mask, st.Table
	// At the retire stage outBase + d is the terminal label, which is
	// how its fault row indexes it.
	bc := buckets * capacity
	var live []bool
	if n.live != nil {
		live = n.live[s-1]
	}
	var liveCap []int32
	if live != nil && !retire {
		liveCap = n.liveCap[s-1]
	}
	lo, wshift := n.base[s-1], n.wshift[s-1]
	hi := lo + st.Switches<<wshift
	outBaseRing := n.fifo.Count() // anatomy node of terminal 0
	if !retire {
		outBaseRing = n.base[s]
	}
	depth := n.opts.Depth
	used := n.used[:buckets]
	full, dead := n.fifo.NonEmpty(), n.dead
	// Packets leaving the boundary are folded into occ once, at the end.
	gone0, moved := cs.Delivered+cs.Dropped, 0
	var err error

	for f := ringbuf.Next(full, dead, lo, hi); f < hi; f = ringbuf.Next(full, dead, f, hi) {
		sw := (f - lo) >> wshift
		swIn := lo + sw<<wshift
		f = swIn + width // the walk resumes after this switch
		var order []int
		if !n.fastPriority {
			if order, err = n.switchOrder(s, sw, width); err != nil {
				break
			}
		}
		for i := range used {
			used[i] = 0
		}
		outBase := sw * bc
		// The switch's candidates: ascending from the bitmap words (w, m),
		// or in the arbiter's order (k).
		w := swIn >> 6
		m := full[w] &^ dead[w] & span(w, swIn, f)
		for k := 0; ; {
			var ring int
			if order == nil {
				for m == 0 {
					if w++; w<<6 >= f {
						break
					}
					m = full[w] &^ dead[w] & span(w, swIn, f)
				}
				if m == 0 {
					break
				}
				ring = w<<6 | bits.TrailingZeros64(m)
				m &= m - 1
			} else {
				if k == width {
					break
				}
				ring = swIn + order[k]
				k++
				if (full[ring>>6]&^dead[ring>>6])>>(ring&63)&1 == 0 {
					continue
				}
			}
			pkt := n.fifo.Peek(ring)
			d := int((uint32(pkt) >> shift) & mask)
			// Move the head: at the retire stage onto terminal outBase+d,
			// elsewhere onto the first *live* bucket-d wire whose
			// downstream FIFO has room. Each output wire carries at most
			// one packet per cycle — used counts grants, wires skipped as
			// full and dead wires alike, so every wire is considered at
			// most once. blocker is the anatomy node to blame if the head
			// stays: the contended terminal or the first full FIFO tried
			// (-1 when every wire was dead or already consumed).
			to, blocker := -1, -1
			if retire {
				switch {
				case live != nil && !live[outBase+d]:
				case used[d] != 0:
					blocker = outBaseRing + outBase + d
				default:
					used[d] = 1
					n.fifo.Skip(ring)
					n.retire(pkt, cs)
					to = outBaseRing + outBase + d
				}
			} else {
				for int(used[d]) < capacity {
					o := outBase + d*capacity + int(used[d])
					used[d]++
					if live != nil && !live[o] {
						continue // dead wire: permanently unusable, skip it
					}
					down := outBaseRing + o
					if tab != nil {
						down = outBaseRing + int(tab[o])
					}
					if n.fifo.HasSpace(down, depth) {
						n.fifo.Skip(ring)
						if depth == Unbounded {
							n.fifo.Push(down, pkt)
						} else {
							n.fifo.Put(down, pkt)
						}
						moved++
						to = down
						break
					}
					// This wire leads to a full FIFO: it is consumed for
					// the cycle; try the bucket's next wire.
					if blocker < 0 {
						blocker = down
					}
				}
			}
			if to < 0 {
				// Parked when the target is dead under the current mask —
				// the terminal itself, or a bucket with zero live wires —
				// rather than merely oversubscribed or backed up.
				parked := live != nil && (retire && !live[outBase+d] || !retire && liveCap[sw*buckets+d] == 0)
				n.stall(s, ring, pkt, parked, blocker, cs)
				continue
			}
			if n.probe != nil && !retire {
				n.probe.Hop(pkt, s, probe.EvTraverse, n.now)
			}
			if n.anat != nil {
				if retire {
					n.anat.Deliver(ring, n.now)
				} else {
					n.anat.Advance(ring, to, n.now)
				}
			}
		}
	}
	n.occ[s-1] -= int64(moved + cs.Delivered + cs.Dropped - gone0)
	if !retire {
		n.occ[s] += int64(moved)
	}
	return err
}

// span returns the bits of bitmap word w that number rings in [lo, hi).
func span(w, lo, hi int) uint64 {
	return ^uint64(0) << uint(max(lo-w<<6, 0)) & (1<<uint(min(hi-w<<6, 64)) - 1)
}

// stall settles a stage-s head packet that could not move this cycle:
// discarded under Drop; otherwise it stays at the head of its ring,
// parked for as long as the mask stands when its target is dead, or
// blocked by contention, with blocker the anatomy node to blame.
func (n *Network) stall(s, ring int, pkt uint64, parked bool, blocker int, cs *CycleStats) {
	switch {
	case n.opts.Policy == Drop:
		n.fifo.Skip(ring)
		n.queued--
		cs.Dropped++
		n.perStage[s-1]++
		if n.probe != nil {
			n.probe.AddStage(pmDropped, s-1, 1)
			n.probe.Close(pkt, s, probe.EvDrop, n.now)
		}
		if n.anat != nil {
			n.anat.Drop(ring, blocker, n.now)
		}
	case parked:
		cs.ParkedOnDead++
		if n.probe != nil {
			n.probe.AddStage(pmParked, s-1, 1)
			n.probe.Hop(pkt, s, probe.EvPark, n.now)
		}
	default:
		if n.probe != nil {
			n.probe.AddStage(pmHolBlocked, s-1, 1)
			n.probe.Hop(pkt, s, probe.EvBlock, n.now)
		}
		if n.anat != nil {
			n.anat.Block(ring, blocker, n.now)
		}
	}
}

// cycleUnbuffered is the Depth == 0 cycle: every input's in-flight
// packet (retained from a blocked attempt, or freshly injected) sweeps
// through all stages within the cycle — per-switch arbitration at each
// stage over the wave of surviving packets, at most one packet per
// wire, then at most one retirement per terminal — the paper's
// circuit-switched network cycle. The sweep records each packet's
// outcome; the outcomes settle after it, in input order (see settle0).
// Backpressure resubmits blocked packets from the input next cycle —
// the Section 4 / Section 5.1 closed-loop regime; Drop discards them,
// the memoryless Section 3.2 model. Destinations were validated by
// Cycle before any state changed; an arbiter error aborts the sweep
// with its packets still pending.
func (n *Network) cycleUnbuffered(dest []int, cs *CycleStats) error {
	for i := range n.pending {
		if n.pending[i] != NoRequest {
			// Input busy: a retained packet resubmits; any new offer is
			// refused at the source.
			if dest[i] != NoRequest {
				cs.Injected++
				cs.Refused++
			}
			continue
		}
		d := dest[i]
		if d == NoRequest {
			continue
		}
		cs.Injected++
		if n.liveIn != nil && !n.liveIn[i] {
			cs.Refused++ // severed input wire: refused at the source
			n.outcome[i] = 1
			continue
		}
		n.pending[i] = d
		n.pendAt[i] = n.now
		n.queued++
		if n.probe != nil {
			if rec := n.probe.SampleInject(i, d, n.now); rec >= 0 {
				n.pendTrace[i] = rec
				n.probe.HopRec(rec, 0, probe.EvInject, n.now)
			}
		}
		if n.anat != nil {
			n.anat.Inject0(i, i, d, n.now)
		}
	}

	cur := n.waveA[:n.inputs]
	for i, d := range n.pending {
		cur[i] = -1
		if d == NoRequest {
			continue
		}
		if n.liveIn != nil && !n.liveIn[i] {
			// A retained packet whose input wire died under it is
			// blocked at stage 1 before any arbitration.
			n.outcome[i] = 1
			continue
		}
		cur[i] = int32(i)
	}
	next := n.waveB
	for s := 1; s <= n.stages; s++ {
		st := &n.st[s-1]
		retire := s == n.stages
		width, wires, shift, mask, tab := st.Width, st.Wires, st.Shift, st.Mask, st.Table
		var nxt []int32
		if !retire {
			nxt = next[:n.st[s].Switches*n.st[s].Width]
			for i := range nxt {
				nxt[i] = -1
			}
		}
		var live []bool
		if n.live != nil {
			live = n.live[s-1]
		}
		bc := st.Buckets * wires
		used := n.used[:st.Buckets]
		for sw := 0; sw < st.Switches; sw++ {
			in := cur[sw*width : (sw+1)*width]
			if !n.fastPriority {
				busy := false
				for _, org := range in {
					if org >= 0 {
						busy = true
						break
					}
				}
				if !busy {
					continue
				}
				order, err := n.switchOrder(s, sw, width)
				if err != nil {
					return err
				}
				if order != nil {
					// Arbitrate in the arbiter's order: permute the
					// switch's slice of the wave into scratch.
					ordered := n.waveOrder[:width]
					for i, p := range order {
						ordered[i] = in[p]
					}
					in = ordered
				}
			}
			for i := range used {
				used[i] = 0
			}
			for _, org := range in {
				if org < 0 {
					continue
				}
				d := int((uint32(n.pending[org]) >> shift) & mask)
				granted := false
				for int(used[d]) < wires {
					o := sw*bc + d*wires + int(used[d])
					used[d]++
					if live != nil && !live[o] {
						continue // dead wire: skip it
					}
					granted = true
					if !retire {
						down := o
						if tab != nil {
							down = int(tab[o])
						}
						nxt[down] = org
					}
					break
				}
				switch {
				case !granted:
					n.outcome[org] = int32(s)
				case retire:
					n.outcome[org] = 0
				}
			}
		}
		cur, next = nxt, cur[:cap(cur)]
	}
	for i, d := range n.pending {
		if d != NoRequest {
			n.settle0(i, int(n.outcome[i]), cs)
		}
	}
	if n.anat != nil {
		n.anat.EndCycle0()
	}
	return nil
}

// Verdict reports the last depth-0 cycle's verdict on input i's
// packet, on either fabric: 0 delivered, s blocked at stage s. It
// covers every input that offered to a Drop network: a packet that
// entered the sweep reads its outcome, and one refused at a dead input
// reads 1, the stage-1 block.
func (n *Network) Verdict(i int) int { return int(n.outcome[i]) }

// settle0 applies input i's depth-0 outcome: a delivery (s == 0) has
// latency 1 on its first attempt — one whole-network transit inside
// the injection cycle; a packet blocked at stage s is discarded under
// Drop and otherwise retained to resubmit, parked and charged to the
// dead component's stage when one pins it (see deadEnd), blocked at s
// otherwise.
func (n *Network) settle0(i, s int, cs *CycleStats) {
	switch {
	case s == 0:
		n.lat.Add(float64(n.now-n.pendAt[i]) + 1)
		n.queued--
		cs.Delivered++
		if n.probe != nil {
			n.probe.CloseRec(n.pendTrace[i], n.stages, probe.EvDeliver, n.now)
			n.pendTrace[i] = -1
		}
		if n.anat != nil {
			n.anat.Deliver0(i, n.now)
		}
		if n.deliver != nil {
			n.deliver(n.pending[i], int64(uint32(n.pendAt[i])))
		}
		n.pending[i] = NoRequest
	case n.opts.Policy == Drop:
		n.queued--
		cs.Dropped++
		n.perStage[s-1]++
		if n.probe != nil {
			n.probe.AddStage(pmDropped, s-1, 1)
			n.probe.CloseRec(n.pendTrace[i], s, probe.EvDrop, n.now)
			n.pendTrace[i] = -1
		}
		if n.anat != nil {
			n.anat.Drop0(i, s, n.now)
		}
		n.pending[i] = NoRequest
	default:
		at, parked := s, false
		if dead := n.deadEnd(i); dead != 0 {
			at, parked = dead, true
			cs.ParkedOnDead++
		}
		if n.probe != nil {
			metric, ev := pmHolBlocked, probe.EvBlock
			if parked {
				metric, ev = pmParked, probe.EvPark
			}
			n.probe.AddStage(metric, at-1, 1)
			n.probe.HopRec(n.pendTrace[i], at, ev, n.now)
		}
		if n.anat != nil {
			n.anat.Block0(i, at, parked, n.now)
		}
	}
}

// deadEnd is the depth-0 parking test: the stage of the dead component
// that pins input i's pending packet, or 0 when none does. It checks
// the input wire (stage 1), then the destination terminal (the retire
// stage), then the buckets of the packet's switch path from stage 1
// outward. Every wire of a bucket lands on one downstream switch, so
// the (input, destination) pair fixes that path; the walk follows each
// bucket's first wire and stops at deadDepth, past which every bucket
// has a live wire.
func (n *Network) deadEnd(i int) int {
	d := uint32(n.pending[i])
	switch {
	case n.liveIn != nil && !n.liveIn[i]:
		return 1
	case n.live != nil && n.live[n.stages-1] != nil && !n.live[n.stages-1][d]:
		return n.stages
	}
	w := i
	for s := range n.deadDepth {
		st := &n.st[s]
		b := (w>>n.wshift[s])*st.Buckets + int((d>>st.Shift)&st.Mask)
		if n.liveCap[s][b] == 0 {
			return s + 1
		}
		w = b * st.Wires
		if st.Table != nil {
			w = int(st.Table[w])
		}
	}
	return 0
}
