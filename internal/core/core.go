// Package core implements the paper's primary contribution as an
// executable artifact: a cycle-level, circuit-switched Expanded Delta
// Network. It binds the static structure of internal/topology, the
// hyperbar/crossbar behavior of internal/switchfab and the
// digit-retirement routing of internal/routing into a Network that
// arbitrates whole request batches exactly as Section 2 describes.
//
// One RouteCycle call models one network cycle: every request propagates
// stage by stage; a hyperbar bucket accepts at most c requests; losers
// are dropped (circuit switched, no buffering); survivors of the final
// c x c crossbar stage appear on their destination terminals.
//
// The cycle engine is table driven and allocation-free in steady state:
// NewNetwork precomputes every interstage gamma as a flat permutation
// table, each cycle decomposes every destination into its per-stage
// routing digits exactly once, and RouteCycleInto reuses all scratch
// buffers, so the Monte-Carlo harnesses in internal/simulate can run
// millions of cycles without touching the allocator.
package core

import (
	"fmt"
	"math"

	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/switchfab"
	"edn/internal/topology"
)

// NoRequest marks an idle input in a request vector, and "not delivered"
// in an output assignment.
const NoRequest = -1

// ArbiterFactory builds one arbiter per physical switch. Stateful
// arbiters (round robin, random) need per-switch instances; stateless
// ones may return a shared value.
type ArbiterFactory func() switchfab.Arbiter

// PriorityArbiters is the default factory: the paper's input-label
// priority rule.
func PriorityArbiters() switchfab.Arbiter { return switchfab.PriorityArbiter{} }

// Network is an instantiated EDN ready to route request batches. It is
// not safe for concurrent use; build one per goroutine (construction
// cost is dominated by the interstage tables, a small multiple of one
// wire-state slice).
type Network struct {
	cfg      topology.Config
	factory  ArbiterFactory
	arbiters [][]switchfab.Arbiter // [stage-1][switch]
	// fastPriority marks the default nil-factory network: every switch
	// arbitrates with the stateless input-label priority rule, so the
	// stage kernel can fuse gather/arbitrate/apply into one pass without
	// consulting (or even instantiating) per-switch arbiters.
	fastPriority bool

	// Precomputed routing state, immutable after NewNetwork.
	gammaTab   [][]int32 // [interstage-1] flat permutation; nil = identity
	logB, logC int       // log2 of cfg.B / cfg.C
	maskB      int32     // cfg.B - 1
	maskC      int32     // cfg.C - 1

	// Fault availability, swapped atomically between cycles by
	// UpdateFaults. liveIn masks the network inputs; live[s-1] masks
	// stage s's output labels. nil slices mean fully live, and every
	// unfaulted stage keeps the original kernels, so a fault-free (or
	// repaired-back-to-empty) network is bit-for-bit (and
	// instruction-for-instruction) identical to one built without masks.
	// liveRows is the preallocated backing store live points into when a
	// mask is active, so an epoch's row swap performs no allocations.
	liveIn   []bool
	live     [][]bool
	liveRows [][]bool

	// Scratch reused across cycles. RouteCycleInto owns these; nothing
	// here survives into caller-visible state except via explicit copies.
	lineOwner []int   // wire -> input currently holding it, or NoRequest
	cleared   []int   // NoRequest-filled template; lineOwner resets by copy
	line      []int   // input -> current wire, or NoRequest once dropped
	tags      []int32 // [stage][input] routing digit, row-major, L+1 rows
	blocked   []int   // CycleStats.Blocked backing store
	scratch   stageScratch

	// Optional flight-recorder probe. All hooks live at the cycle level
	// (injection loop and per-stage outcome scan), never inside the
	// routeStage kernels, so the fused fast paths are untouched and a
	// nil probe costs one predictable branch.
	probe    *probe.Probe
	traceIn  []int   // input index of each sampled request this cycle
	traceRec []int32 // matching open trace record handles
	traceN   int
	pcycle   int64 // probe timestamp: cycles routed since SetProbe
}

// stageScratch is the working set of routeStage: the digit vector
// presented to one switch plus the switch-level grant buffers.
type stageScratch struct {
	digits []int
	route  switchfab.RouteScratch
}

func newStageScratch(cfg topology.Config) stageScratch {
	buckets := cfg.B
	if cfg.C > buckets {
		buckets = cfg.C // the output crossbar has C single-wire buckets
	}
	return stageScratch{
		digits: make([]int, cfg.A),
		route:  *switchfab.NewRouteScratch(cfg.A, buckets),
	}
}

// NewNetwork builds a network for cfg. A nil factory selects the paper's
// priority arbitration.
func NewNetwork(cfg topology.Config, factory ArbiterFactory) (*Network, error) {
	return NewNetworkWithFaults(cfg, factory, nil)
}

// NewNetworkWithFaults builds a network that routes around the
// components disabled by m (see internal/faults): grants only go to
// live candidate wires, a request whose whole bucket is dead is blocked
// at that stage, and a request arriving on a dead input is blocked at
// stage 1. A nil or empty mask is exactly NewNetwork.
func NewNetworkWithFaults(cfg topology.Config, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	return newNetwork(cfg, nil, factory, m)
}

// NewNetworkFromTables is NewNetworkWithFaults over prebuilt interstage
// tables: the network shares t's read-only slices instead of
// materializing its own, so repeated constructions over one cached
// Tables skip the dominant O(wires) build cost while remaining
// bit-for-bit identical to a fresh build.
func NewNetworkFromTables(t *topology.Tables, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil tables")
	}
	return newNetwork(t.Config(), t, factory, m)
}

func newNetwork(cfg topology.Config, tables *topology.Tables, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fastPriority := factory == nil
	if factory == nil {
		factory = PriorityArbiters
	}
	n := &Network{cfg: cfg, factory: factory, fastPriority: fastPriority}
	n.arbiters = make([][]switchfab.Arbiter, cfg.Stages())
	for s := 1; s <= cfg.Stages(); s++ {
		n.arbiters[s-1] = make([]switchfab.Arbiter, cfg.SwitchesInStage(s))
	}
	maxW := cfg.Inputs()
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > maxW {
			maxW = w
		}
	}
	if maxW > math.MaxInt32 {
		// The int32 interstage tables (and any realistic memory budget)
		// cap the simulable geometry well below the topology package's
		// 40-bit structural limit.
		return nil, fmt.Errorf("core: %v has %d wires in one stage, beyond the simulable limit", cfg, maxW)
	}
	n.lineOwner = make([]int, maxW)
	n.cleared = make([]int, maxW)
	for i := range n.cleared {
		n.cleared[i] = NoRequest
	}
	n.line = make([]int, cfg.Inputs())
	n.tags = make([]int32, cfg.Stages()*cfg.Inputs())
	n.blocked = make([]int, cfg.Stages())
	n.gammaTab = make([][]int32, cfg.L)
	for s := 1; s <= cfg.L; s++ {
		if tables != nil {
			n.gammaTab[s-1] = tables.Interstage(s)
		} else {
			n.gammaTab[s-1] = cfg.InterstageTable(s)
		}
	}
	n.logB = topology.Log2(cfg.B)
	n.logC = topology.Log2(cfg.C)
	n.maskB = int32(cfg.B - 1)
	n.maskC = int32(cfg.C - 1)
	n.scratch = newStageScratch(cfg)
	n.liveRows = make([][]bool, cfg.Stages())
	if err := n.UpdateFaults(m); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's availability masks in place: the next
// RouteCycle routes around exactly the components m disables, without
// rebuilding tables, scratch or arbiter state. A nil or empty mask
// restores the unmasked fast paths bit-for-bit (the network becomes
// indistinguishable from one built by NewNetwork, arbiter state aside).
// The swap itself allocates nothing, so an epoch-driven lifecycle loop
// stays allocation-free in steady state. Masks must have been compiled
// for this network's configuration; on error the previous masks remain
// in effect. Not safe to call concurrently with RouteCycleInto.
func (n *Network) UpdateFaults(m *faults.Masks) error {
	if m.Empty() {
		n.liveIn, n.live = nil, nil
		return nil
	}
	if got := m.Config(); got != n.cfg {
		return fmt.Errorf("core: masks compiled for %v, network is %v", got, n.cfg)
	}
	for s := 1; s <= n.cfg.Stages(); s++ {
		n.liveRows[s-1] = m.LiveStageOutputs(s)
	}
	n.liveIn = m.LiveInputs()
	n.live = n.liveRows
	return nil
}

// Faulted reports whether the network was built with a non-empty fault
// mask.
func (n *Network) Faulted() bool { return n.liveIn != nil || n.live != nil }

// ProbeMetrics is the per-stage heat metric set a core network binds
// its probe to: requests offered (stage 1 row), requests dropped per
// stage, and requests delivered (crossbar row).
var ProbeMetrics = []string{"offered", "blocked", "delivered"}

const (
	pmOffered = iota
	pmBlocked
	pmDelivered
)

// SetProbe attaches (or with nil, detaches) a flight-recorder probe.
// The probe's cycle clock starts at 0 on attach: core networks keep no
// wall time of their own, so hop stamps count RouteCycle calls since
// SetProbe. A nil probe restores the uninstrumented cycle path
// bit-for-bit. Not safe to call concurrently with RouteCycleInto.
func (n *Network) SetProbe(p *probe.Probe) {
	n.probe = p
	if p != nil {
		p.Bind(n.cfg.Stages(), ProbeMetrics)
		if n.traceIn == nil {
			n.traceIn = make([]int, n.cfg.Inputs())
			n.traceRec = make([]int32, n.cfg.Inputs())
		}
	}
	n.traceN = 0
	n.pcycle = 0
}

// Config returns the network's configuration.
func (n *Network) Config() topology.Config { return n.cfg }

func (n *Network) arbiter(stage, sw int) switchfab.Arbiter {
	if n.arbiters[stage-1][sw] == nil {
		n.arbiters[stage-1][sw] = n.factory()
	}
	return n.arbiters[stage-1][sw]
}

// Outcome reports the fate of one input's request in a cycle.
type Outcome struct {
	// Output is the network output terminal the request reached, or
	// NoRequest if the input was idle or the request was blocked.
	Output int
	// BlockedStage is the 1-based stage at which the request lost
	// arbitration, or 0 if it was idle or delivered.
	BlockedStage int
}

// Delivered reports whether the request reached an output.
func (o Outcome) Delivered() bool { return o.Output != NoRequest }

// CycleStats aggregates one RouteCycle call.
type CycleStats struct {
	Offered   int   // inputs carrying a request
	Delivered int   // requests that reached their destination
	Blocked   []int // Blocked[s-1] = requests dropped at stage s
}

// BlockedTotal returns the total number of dropped requests.
func (cs CycleStats) BlockedTotal() int {
	t := 0
	for _, b := range cs.Blocked {
		t += b
	}
	return t
}

// PA returns the cycle's empirical probability of acceptance
// (delivered/offered), or 1 for an idle cycle.
func (cs CycleStats) PA() float64 {
	if cs.Offered == 0 {
		return 1
	}
	return float64(cs.Delivered) / float64(cs.Offered)
}

// RouteCycle routes one batch of requests: dest[i] is the destination
// terminal requested by input i, or NoRequest. It returns one Outcome per
// input plus aggregate statistics.
//
// Digit retirement follows Section 2: stage i consumes d_(l-i) of the
// destination tag, the final crossbar stage consumes x. The c-way wire
// freedom inside each bucket (Theorem 2) is resolved by arbitration
// order, which is how the MasPar hyperbar behaves.
//
// RouteCycle allocates its result slices; steady-state measurement loops
// should call RouteCycleInto instead.
func (n *Network) RouteCycle(dest []int) ([]Outcome, CycleStats, error) {
	outcomes := make([]Outcome, n.cfg.Inputs())
	cs, err := n.RouteCycleInto(dest, outcomes)
	if err != nil {
		return nil, CycleStats{}, err
	}
	cs.Blocked = append([]int(nil), cs.Blocked...)
	return outcomes, cs, nil
}

// RouteCycleInto is RouteCycle with caller-owned memory: outcomes (one
// slot per input) receives every input's fate, and all engine scratch —
// wire state, digit tags, grant buffers, the stats' Blocked slice — is
// reused across calls, so a steady-state loop performs no allocations.
//
// The returned CycleStats.Blocked aliases an internal buffer that the
// next RouteCycleInto call on this network overwrites; callers that keep
// it across cycles must copy it (RouteCycle does exactly that).
func (n *Network) RouteCycleInto(dest []int, outcomes []Outcome) (CycleStats, error) {
	cfg := n.cfg
	inputs := cfg.Inputs()
	if len(dest) != inputs {
		return CycleStats{}, fmt.Errorf("core: %v got %d requests, want %d inputs", cfg, len(dest), inputs)
	}
	if len(outcomes) != inputs {
		return CycleStats{}, fmt.Errorf("core: %v got %d outcome slots, want %d inputs", cfg, len(outcomes), inputs)
	}
	for i := range n.blocked {
		n.blocked[i] = 0
	}
	stats := CycleStats{Blocked: n.blocked}
	if n.probe != nil {
		n.traceN = 0
	}

	// Live message bookkeeping: line[i] = current wire of input i's
	// request, or NoRequest once dropped/idle. The destination of every
	// live request is decomposed into its per-stage routing digits once,
	// here, instead of re-dividing inside every stage's switch loop:
	// row s-1 of the tag buffer holds d_(l-s) (the digit stage s
	// retires), row l holds the crossbar digit x = dest mod c.
	line := n.line
	tags := n.tags
	outputs := cfg.Outputs()
	lastRow := cfg.L * inputs
	for i, d := range dest {
		if d == NoRequest {
			line[i] = NoRequest
			outcomes[i] = Outcome{Output: NoRequest}
			continue
		}
		if d < 0 || d >= outputs {
			return CycleStats{}, fmt.Errorf("core: input %d requests output %d out of range [0,%d)", i, d, outputs)
		}
		stats.Offered++
		if n.liveIn != nil && !n.liveIn[i] {
			// The request enters on a severed input wire (or a dead
			// stage-1 switch): blocked at stage 1 before any arbitration.
			line[i] = NoRequest
			outcomes[i] = Outcome{Output: NoRequest, BlockedStage: 1}
			stats.Blocked[0]++
			continue
		}
		line[i] = i
		v := int32(d >> n.logC)
		for row := (cfg.L - 1) * inputs; row >= 0; row -= inputs {
			tags[row+i] = v & n.maskB
			v >>= n.logB
		}
		tags[lastRow+i] = int32(d) & n.maskC
		if n.probe != nil {
			if rec := n.probe.SampleInject(i, d, n.pcycle); rec >= 0 {
				n.traceIn[n.traceN] = i
				n.traceRec[n.traceN] = rec
				n.traceN++
				n.probe.HopRec(rec, 0, probe.EvInject, n.pcycle)
			}
		}
	}

	for s := 1; s <= cfg.L+1; s++ {
		// Reset wire ownership for the wires feeding this stage; copying
		// from a NoRequest-filled template is a plain memmove, far
		// cheaper than a store loop at large wire counts.
		wires := cfg.WiresAfterStage(s - 1)
		copy(n.lineOwner[:wires], n.cleared[:wires])
		for i, ln := range line {
			if ln != NoRequest {
				n.lineOwner[ln] = i
			}
		}
		blocked, delivered, err := n.routeStage(s, outcomes)
		if err != nil {
			return CycleStats{}, err
		}
		stats.Blocked[s-1] += blocked
		stats.Delivered += delivered
		if n.probe != nil {
			n.traceStage(s, outcomes)
		}
	}
	if n.probe != nil {
		n.probe.AddStage(pmOffered, 0, float64(stats.Offered))
		for s := 0; s < cfg.Stages(); s++ {
			n.probe.AddStage(pmBlocked, s, float64(stats.Blocked[s]))
		}
		n.probe.AddStage(pmDelivered, cfg.Stages()-1, float64(stats.Delivered))
		n.probe.EndCycle()
		n.pcycle++
	}
	return stats, nil
}

// traceStage advances every open trace record past stage s: a request
// still holding a wire traversed, a request whose outcome shows an
// output was delivered at the crossbar, and a request dropped by
// arbitration closes at its blocking stage (circuit switching makes
// every loss terminal).
func (n *Network) traceStage(s int, outcomes []Outcome) {
	for t := 0; t < n.traceN; t++ {
		rec := n.traceRec[t]
		if rec < 0 {
			continue
		}
		i := n.traceIn[t]
		switch {
		case outcomes[i].Delivered():
			n.probe.CloseRec(rec, s, probe.EvDeliver, n.pcycle)
			n.traceRec[t] = -1
		case n.line[i] == NoRequest:
			n.probe.CloseRec(rec, outcomes[i].BlockedStage, probe.EvDrop, n.pcycle)
			n.traceRec[t] = -1
		default:
			n.probe.HopRec(rec, s, probe.EvTraverse, n.pcycle)
		}
	}
}

// routeStage arbitrates every switch of one stage: it gathers each
// switch's digit vector from the precomputed tag rows, runs the
// allocation-free switch arbitration, and applies the grants — advancing
// winners through the interstage table (hyperbar stages) or recording
// deliveries (the final crossbar stage).
func (n *Network) routeStage(stage int, outcomes []Outcome) (blocked, delivered int, err error) {
	if n.live != nil {
		if live := n.live[stage-1]; live != nil {
			return n.routeStageMasked(stage, outcomes, live)
		}
	}
	cfg := n.cfg
	sc := &n.scratch
	switches := cfg.SwitchesInStage(stage)
	inputs := cfg.Inputs()
	isCrossbar := stage == cfg.L+1
	width, buckets, capacity := cfg.A, cfg.B, cfg.C
	var tab []int32
	var bc int
	if isCrossbar {
		width, buckets, capacity = cfg.C, cfg.C, 1
	} else {
		tab = n.gammaTab[stage-1]
		bc = cfg.B * cfg.C
	}
	tags := n.tags[(stage-1)*inputs : stage*inputs]
	lineOwner := n.lineOwner
	line := n.line

	if n.fastPriority {
		// Default-arbitration fast path. The priority rule considers
		// inputs in their natural order, and every tag-buffer digit is
		// in range by construction (it was masked out of a validated
		// destination), so the gather, the arbitration and the grant
		// application fuse into a single pass per switch with no
		// per-switch arbiter state at all.
		used := sc.route.Used[:buckets]
		for sw := 0; sw < switches; sw++ {
			base := sw * width
			outBase := sw * bc // hyperbar stage-output wire base
			for i := range used {
				used[i] = 0
			}
			for p := 0; p < width; p++ {
				owner := lineOwner[base+p]
				if owner == NoRequest {
					continue
				}
				d := int(tags[owner])
				if used[d] == capacity {
					line[owner] = NoRequest
					outcomes[owner] = Outcome{Output: NoRequest, BlockedStage: stage}
					blocked++
					continue
				}
				o := d*capacity + used[d]
				used[d]++
				switch {
				case isCrossbar:
					outcomes[owner] = Outcome{Output: base + o}
					delivered++
				case tab != nil:
					line[owner] = int(tab[outBase+o])
				default: // identity interstage (the last hyperbar stage)
					line[owner] = outBase + o
				}
			}
		}
		return blocked, delivered, nil
	}

	hb := cfg.Hyperbar()
	xb := cfg.OutputCrossbar()
	digits := sc.digits[:width]
	for sw := 0; sw < switches; sw++ {
		base := sw * width
		busy := false
		for p := 0; p < width; p++ {
			owner := lineOwner[base+p]
			if owner == NoRequest {
				digits[p] = switchfab.Idle
				continue
			}
			busy = true
			digits[p] = int(tags[owner])
		}
		if !busy {
			continue
		}
		var grants []int
		var routeErr error
		if isCrossbar {
			grants, _, routeErr = xb.RouteInto(digits, n.arbiter(stage, sw), &sc.route)
		} else {
			grants, _, routeErr = hb.RouteInto(digits, n.arbiter(stage, sw), &sc.route)
		}
		if routeErr != nil {
			if isCrossbar {
				return 0, 0, fmt.Errorf("core: crossbar %d: %w", sw, routeErr)
			}
			return 0, 0, fmt.Errorf("core: stage %d switch %d: %w", stage, sw, routeErr)
		}
		for p, o := range grants {
			owner := lineOwner[base+p]
			if owner == NoRequest {
				continue
			}
			switch {
			case o == switchfab.Idle:
				line[owner] = NoRequest
				outcomes[owner] = Outcome{Output: NoRequest, BlockedStage: stage}
				blocked++
			case isCrossbar:
				outcomes[owner] = Outcome{Output: base + o}
				delivered++
			case tab != nil:
				line[owner] = int(tab[sw*bc+o])
			default: // identity interstage (the last hyperbar stage)
				line[owner] = sw*bc + o
			}
		}
	}
	return blocked, delivered, nil
}

// routeStageMasked is the degraded-mode stage kernel, taken only for
// stages whose availability row is non-nil: the bucket scan skips dead
// output wires (a dead wire is unusable forever, so it is consumed from
// the cursor exactly once), and a request whose bucket has no live wire
// left is blocked at this stage. It remains a fused single pass with no
// allocations; unfaulted stages of the same network never reach it, so
// the empty mask costs nothing.
func (n *Network) routeStageMasked(stage int, outcomes []Outcome, live []bool) (blocked, delivered int, err error) {
	cfg := n.cfg
	sc := &n.scratch
	switches := cfg.SwitchesInStage(stage)
	inputs := cfg.Inputs()
	isCrossbar := stage == cfg.L+1
	width, buckets, capacity := cfg.A, cfg.B, cfg.C
	var tab []int32
	bc := cfg.B * cfg.C
	if isCrossbar {
		// The crossbar's stage-local output label is sw*c + port, so the
		// same outBase + d*capacity + k addressing serves both switch
		// kinds (capacity 1 makes k always 0).
		width, buckets, capacity = cfg.C, cfg.C, 1
		bc = cfg.C
	} else {
		tab = n.gammaTab[stage-1]
	}
	tags := n.tags[(stage-1)*inputs : stage*inputs]
	lineOwner := n.lineOwner
	line := n.line
	used := sc.route.Used[:buckets]
	digits := sc.digits[:width]

	for sw := 0; sw < switches; sw++ {
		base := sw * width
		outBase := sw * bc
		// Arbitration order: natural for the fused priority default,
		// otherwise from the switch's arbiter — consulted only when the
		// switch is busy, so stateful arbiters advance exactly as they do
		// on the unmasked path.
		var order []int
		if !n.fastPriority {
			busy := false
			for p := 0; p < width; p++ {
				owner := lineOwner[base+p]
				if owner == NoRequest {
					digits[p] = switchfab.Idle
					continue
				}
				busy = true
				digits[p] = int(tags[owner])
			}
			if !busy {
				continue
			}
			switch a := n.arbiter(stage, sw).(type) {
			case switchfab.PriorityArbiter:
				// natural order
			case switchfab.InPlaceArbiter:
				order = sc.route.Order[:width]
				a.OrderInto(order)
			default:
				order = a.Order(width)
			}
		}
		for i := range used {
			used[i] = 0
		}
		for idx := 0; idx < width; idx++ {
			p := idx
			if order != nil {
				p = order[idx]
			}
			owner := lineOwner[base+p]
			if owner == NoRequest {
				continue
			}
			d := int(tags[owner])
			k := used[d]
			for k < capacity && !live[outBase+d*capacity+k] {
				k++
			}
			if k == capacity {
				used[d] = capacity
				line[owner] = NoRequest
				outcomes[owner] = Outcome{Output: NoRequest, BlockedStage: stage}
				blocked++
				continue
			}
			o := d*capacity + k
			used[d] = k + 1
			switch {
			case isCrossbar:
				outcomes[owner] = Outcome{Output: outBase + o}
				delivered++
			case tab != nil:
				line[owner] = int(tab[outBase+o])
			default: // identity interstage (the last hyperbar stage)
				line[owner] = outBase + o
			}
		}
	}
	return blocked, delivered, nil
}
