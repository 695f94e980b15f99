// Package anatomy is the causal time-attribution layer: it explains
// *where* every packet's latency went, stage by stage, and *which*
// switch is to blame when queues back up.
//
// The packet engine (internal/queuesim, over either fabric) already
// exposes probe hooks that record what happened; anatomy answers why it
// took that long. An attached Collector mirrors every FIFO in the
// network as a queue of record handles, kept in lockstep with the real
// rings by the engine hooks (Inject/Advance/Deliver/Block/Drop/Strand).
// Each cycle of each in-flight packet's life is attributed to exactly
// one of three bins at the stage the packet currently occupies:
//
//   - service: the packet won arbitration and traversed a stage (or
//     was delivered) this cycle;
//   - block:   the packet was at the head of its queue and could not
//     advance — head-of-line blocking, loss, or a fault park;
//   - wait:    the packet sat behind other packets in its queue.
//
// Nothing is charged per queued packet per cycle. A packet waits until
// it reaches the head of its queue and is blocked every cycle it then
// stays there, so both bins follow from three cycle stamps taken when
// it leaves the stage: when it entered the queue, when it reached the
// head, and when it left. The split settles at the departing hook, and
// Report settles the still-queued packets on a copy of the ledgers. A
// per-ring count of Block calls separates congestion from fault parks.
// This relies on the engines' contract that a queue's head gets at most
// one outcome hook (Advance, Deliver, Block or Drop) per cycle; a head
// held by a fault gets none, and every cycle a head stays put without a
// Block call counts as a fault park.
//
// Because every live cycle lands in exactly one bin, the per-packet
// sums obey a conservation law: wait + block + service equals the
// end-to-end latency for every packet class (delivered, dropped,
// stranded) — the property tests pin this for every depth/policy/
// fault/churn combination.
//
// Blocked heads additionally record *what* blocked them: the full
// downstream ring or the contended terminal. Those per-cycle blocked-by
// edges feed two consumers: a per-switch blame ledger (how many
// ring-cycles of blocking each switch caused) and the TreeDetector,
// which walks the edges to their roots each cycle and tracks congestion
// trees over time — root switch, depth, spread, and lifetime.
//
// The contract mirrors internal/probe's: a nil *Collector costs the
// engines one branch per hook site and zero allocations (the
// AnatomyOff benchmark gates this), and an attached Collector only
// observes — it never changes an arbitration decision, so every
// measured number is byte-identical with anatomy on or off. Attached,
// it costs a constant amount of work per engine event and allocates
// nothing in steady state (BenchmarkObserverOn).
package anatomy

import (
	"edn/internal/ringbuf"
	"edn/internal/stats"
)

// Options configures a Collector.
type Options struct {
	// TopK bounds the blame and congestion-tree lists kept in reports
	// (default 8).
	TopK int
	// HistBuckets / HistBucketWidth shape the per-stage dwell-time
	// histograms (defaults 64 buckets of width 4 cycles).
	HistBuckets     int
	HistBucketWidth float64

	// OnPacket, when set, receives every closed packet's attribution
	// record. Used by the conservation property tests; nil in normal
	// operation.
	OnPacket func(PacketSample)
	// OnRequest receives every completed closed-loop request's time
	// split. Used by the conservation property tests; nil otherwise.
	OnRequest func(RequestSample)
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return 8
	}
	return o.TopK
}

func (o Options) buckets() int {
	if o.HistBuckets <= 0 {
		return 64
	}
	return o.HistBuckets
}

func (o Options) width() float64 {
	if o.HistBucketWidth <= 0 {
		return 4
	}
	return o.HistBucketWidth
}

// Layout describes the attachment geometry an engine reports in
// SetAnatomy. Node IDs used in blocked-by edges live in a single space:
// ring r is node r (0 <= r < Rings) and output terminal t is node
// Rings+t. Depth-0 engines bind with Rings == 0 and use the *0 hooks.
type Layout struct {
	Stages  int // routing stages, 1-based; terminal delivery happens at stage Stages
	Inputs  int
	Outputs int
	Rings   int // total FIFO count across all stage boundaries (0 for depth-0)

	// RingStage[r] is the 1-based stage that consumes ring r (the
	// stage whose switches pop it). RingSwitch[r] is the index of that
	// switch within its stage. TermSwitch[t] is the final-stage switch
	// that owns output terminal t.
	RingStage  []int32
	RingSwitch []int32
	TermSwitch []int32
}

// Class labels a closed packet record.
type Class uint8

const (
	ClassDelivered Class = iota
	ClassDropped
	ClassStranded
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassDelivered:
		return "delivered"
	case ClassDropped:
		return "dropped"
	case ClassStranded:
		return "stranded"
	}
	return "class(?)"
}

// PacketSample is one closed packet's attribution record, delivered to
// Options.OnPacket. Wait+Block+Service is the packet's attributed
// latency; the conservation tests compare it against the engine's own
// latency convention (Closed-Inject for buffered engines,
// Closed-Inject+1 for depth-0).
type PacketSample struct {
	Class   Class
	Src     int
	Dest    int
	Inject  int64
	Closed  int64
	Wait    int64
	Block   int64
	Service int64
}

// RequestSample is one completed closed-loop request's five-way time
// split, delivered to Options.OnRequest. The five components telescope:
// (FirstIssue-Created) + (LastIssue-FirstIssue) + (Arrive-LastIssue) +
// (Reply-Arrive) + (Done-Reply) == Done-Created.
type RequestSample struct {
	Src        int
	Dest       int
	Created    int64
	FirstIssue int64
	LastIssue  int64
	Arrive     int64
	Reply      int64
	Done       int64
}

// rec is one in-flight packet's attribution state.
type rec struct {
	inject  int64
	entered int64 // cycle the packet entered its current stage's queue
	src     int32
	dest    int32
	wait    int32
	block   int32
	service int32
}

// head is one ring's head-of-queue state.
type head struct {
	since   int64 // cycle the current head reached the head
	blocked int64 // Block calls against the current head
}

type stageAgg struct {
	wait, block, service int64
	blame                int64
	hist                 *stats.Histogram
}

type flowAgg struct {
	count, wait, block, service int64
}

type classAgg struct {
	count, wait, block, service int64
}

type reqAgg struct {
	completed   int64
	clientQueue int64
	retryWait   int64
	forward     int64
	service     int64
	reply       int64
	giveUps     int64
	giveUpTime  int64
}

// bbNone marks a ring whose head no congestion edge leaves this cycle.
const bbNone = -1

// mirrorSlots is each ring mirror's arena stride in the mirror store;
// a mirror of a deeper FIFO grows alone on its first fill.
const mirrorSlots = 4

// Collector accumulates latency anatomy for one engine run. Create
// with New, hand to the engine's SetAnatomy, read with Report after
// the run. Not safe for concurrent use (engines are single-threaded).
type Collector struct {
	opt Options
	lay Layout

	recs []rec
	free []int32 // freelist of rec indices

	mirror ringbuf.Rings // per ring, record handles, depth>0 engines
	heads  []head        // per ring
	slot0  []int32       // per input, depth-0 engines (-1 = idle)
	now    int64         // cycle of the last EndCycle

	blockedBy   []int32 // per ring, this cycle (bbNone or node)
	blockedList []int32 // rings with a congestion edge this cycle

	stages      []stageAgg
	blame       []int64 // per node (Rings+Outputs)
	srcs        []flowAgg
	dsts        []flowAgg
	classes     [numClasses]classAgg
	faultParked int64
	reqs        reqAgg
	hasReqs     bool

	trees  treeDetector
	cycles int64
}

// New returns an unbound Collector; the engine's SetAnatomy binds it.
func New(opt Options) *Collector {
	return &Collector{opt: opt}
}

// Bind attaches the collector to an engine geometry, resetting any
// prior state. Engines call this from SetAnatomy.
func (c *Collector) Bind(lay Layout) {
	c.lay = lay
	c.recs = c.recs[:0]
	c.free = c.free[:0]
	c.mirror = ringbuf.NewRings(lay.Rings, mirrorSlots)
	c.heads = make([]head, lay.Rings)
	c.slot0 = nil
	if lay.Rings == 0 && lay.Inputs > 0 {
		c.slot0 = make([]int32, lay.Inputs)
		for i := range c.slot0 {
			c.slot0[i] = -1
		}
	}
	c.now = 0
	c.blockedBy = make([]int32, lay.Rings)
	for i := range c.blockedBy {
		c.blockedBy[i] = bbNone
	}
	c.blockedList = make([]int32, 0, lay.Rings)
	c.hasReqs = false
	c.stages = make([]stageAgg, lay.Stages)
	for i := range c.stages {
		c.stages[i].hist = stats.NewHistogram(c.opt.buckets(), c.opt.width())
	}
	c.blame = make([]int64, lay.Rings+lay.Outputs)
	c.srcs = make([]flowAgg, lay.Inputs)
	c.dsts = make([]flowAgg, lay.Outputs)
	c.classes = [numClasses]classAgg{}
	c.faultParked = 0
	c.reqs = reqAgg{}
	c.trees.reset(c.opt.topK(), lay.Rings+lay.Outputs)
	c.cycles = 0
}

// BindRequests attaches the collector to a closed-loop driver: only
// the request-time split is collected (the fabric-level breakdown is
// available by running the same geometry in latency/saturation mode).
func (c *Collector) BindRequests(inputs, outputs int) {
	c.Bind(Layout{Inputs: inputs, Outputs: outputs})
	c.slot0 = nil
	c.hasReqs = true
}

func (c *Collector) alloc(src, dest int, now int64) int32 {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.recs = append(c.recs, rec{})
		i = int32(len(c.recs) - 1)
	}
	c.recs[i] = rec{src: int32(src), dest: int32(dest), inject: now, entered: now}
	return i
}

// close retires a record into the aggregate ledgers.
func (c *Collector) close(i int32, class Class, now int64) {
	r := &c.recs[i]
	w, b, s := int64(r.wait), int64(r.block), int64(r.service)
	ca := &c.classes[class]
	ca.count++
	ca.wait += w
	ca.block += b
	ca.service += s
	if int(r.src) < len(c.srcs) {
		f := &c.srcs[r.src]
		f.count++
		f.wait += w
		f.block += b
		f.service += s
	}
	if int(r.dest) < len(c.dsts) {
		f := &c.dsts[r.dest]
		f.count++
		f.wait += w
		f.block += b
		f.service += s
	}
	if c.opt.OnPacket != nil {
		c.opt.OnPacket(PacketSample{
			Class: class, Src: int(r.src), Dest: int(r.dest),
			Inject: r.inject, Closed: now, Wait: w, Block: b, Service: s,
		})
	}
	c.free = append(c.free, i)
}

// dwell records a stage-departure into the stage's dwell histogram:
// the number of cycles the packet spent queued there, inclusive of the
// departing (or dropping) cycle.
func (sa *stageAgg) dwell(r *rec, now int64) {
	sa.hist.Add(float64(now - r.entered + 1))
}

// push appends record i to ring's mirror; into an empty ring it is the
// head at once.
func (c *Collector) push(ring int, i int32, now int64) {
	if c.mirror.Len(ring) == 0 {
		c.heads[ring].since = now
	}
	c.mirror.Push(ring, uint64(i))
}

// leave pops ring's head at cycle now and settles its visit to the
// ring's stage up to, but excluding, cycle end: it waited from entering
// the queue until it reached the head, then was blocked every cycle it
// stayed there. The blocked cycles that were not Block calls are fault
// parks. The packet behind it reaches the head at now.
func (c *Collector) leave(ring int, now, end int64) (int32, *rec, *stageAgg) {
	i := int32(c.mirror.Peek(ring))
	c.mirror.Skip(ring)
	r := &c.recs[i]
	h := &c.heads[ring]
	w, b := h.since-r.entered, end-h.since-1
	sa := &c.stages[c.lay.RingStage[ring]-1]
	r.wait += int32(w)
	r.block += int32(b)
	sa.wait += w
	sa.block += b
	c.faultParked += b - h.blocked
	*h = head{since: now}
	return i, r, sa
}

// Inject mirrors a packet entering ring (the stage-1 queue it was
// pushed onto). The injection cycle itself attributes nothing: latency
// for buffered engines is Closed-Inject, counting cycles *after*
// injection.
func (c *Collector) Inject(ring, src, dest int, now int64) {
	c.push(ring, c.alloc(src, dest, now), now)
}

// Advance mirrors the head of ring `from` traversing a stage into ring
// `to`: one service cycle at the stage it left, which settles the
// packet's wait and block there.
func (c *Collector) Advance(from, to int, now int64) {
	i, r, sa := c.leave(from, now, now)
	r.service++
	sa.service++
	sa.dwell(r, now)
	r.entered = now
	c.push(to, i, now)
}

// Deliver mirrors the head of ring `from` being retired at its
// destination terminal: one service cycle at the final stage, then the
// record closes as delivered.
func (c *Collector) Deliver(from int, now int64) {
	i, r, sa := c.leave(from, now, now)
	r.service++
	sa.service++
	sa.dwell(r, now)
	c.close(i, ClassDelivered, now)
}

// Block mirrors the head of ring being refused this cycle. blocker is
// the node that refused it — a full ring (node ID = ring index) or a
// contended terminal (node ID = Rings+terminal) — or -1 when the loss
// was pure arbitration (no full FIFO downstream to blame). It touches
// no packet record: the blocked cycle is settled when the head leaves,
// and the per-ring count tells it apart from a fault park.
func (c *Collector) Block(ring, blocker int, now int64) {
	c.heads[ring].blocked++
	if blocker >= 0 {
		c.blame[blocker]++
		c.blockedBy[ring] = int32(blocker)
		c.blockedList = append(c.blockedList, int32(ring))
	}
}

// Drop mirrors the head of ring being discarded (Drop policy): the
// dropping cycle is a blocked cycle, then the record closes as dropped.
func (c *Collector) Drop(ring, blocker int, now int64) {
	i, r, sa := c.leave(ring, now, now)
	r.block++
	sa.block++
	if blocker >= 0 {
		c.blame[blocker]++
	}
	sa.dwell(r, now)
	c.close(i, ClassDropped, now)
}

// Strand mirrors a queued packet being discarded by fault churn (its
// ring died between cycles): its visit settles through the last
// EndCycle, and the stranding itself costs nothing.
func (c *Collector) Strand(ring int, now int64) {
	i, _, _ := c.leave(ring, now, now+1)
	c.close(i, ClassStranded, now)
}

// EndCycle closes cycle now: it folds this cycle's blocked-by edges
// into the congestion-tree detector and resets them. It charges no
// packet: heads the engine never offered (dead rings under
// Backpressure) settle as fault parks when they leave, or in Report.
func (c *Collector) EndCycle(now int64) {
	c.now = now
	c.trees.observe(now, c.blockedList, c.blockedBy, c.lay)
	for _, ring := range c.blockedList {
		c.blockedBy[ring] = bbNone
	}
	c.blockedList = c.blockedList[:0]
	c.cycles++
}

// Inject0 latches a depth-0 request at an input. Depth-0 engines give
// every pending input exactly one outcome hook per cycle (including
// the injection cycle), matching their latency convention of
// Closed-Inject+1.
func (c *Collector) Inject0(input, src, dest int, now int64) {
	c.slot0[input] = c.alloc(src, dest, now)
}

// Block0 charges a pending depth-0 request one blocked cycle at the
// stage that refused it. parked marks fault-induced holds.
func (c *Collector) Block0(input, stage int, parked bool, now int64) {
	i := c.slot0[input]
	if i < 0 {
		return
	}
	c.recs[i].block++
	c.stages[stage-1].block++
	if parked {
		c.faultParked++
	}
}

// Deliver0 retires a pending depth-0 request: one service cycle at the
// final stage.
func (c *Collector) Deliver0(input int, now int64) {
	i := c.slot0[input]
	if i < 0 {
		return
	}
	c.slot0[input] = -1
	r, sa := &c.recs[i], &c.stages[c.lay.Stages-1]
	r.service++
	sa.service++
	sa.dwell(r, now)
	c.close(i, ClassDelivered, now)
}

// Drop0 discards a pending depth-0 request at the stage that refused
// it; the dropping cycle is a blocked cycle.
func (c *Collector) Drop0(input, stage int, now int64) {
	i := c.slot0[input]
	if i < 0 {
		return
	}
	c.slot0[input] = -1
	r, sa := &c.recs[i], &c.stages[stage-1]
	r.block++
	sa.block++
	sa.dwell(r, now)
	c.close(i, ClassDropped, now)
}

// EndCycle0 advances the cycle count for depth-0 engines (they have no
// mirrored queues — every pending input got exactly one outcome hook).
func (c *Collector) EndCycle0() { c.cycles++ }

// ReqComplete records a completed closed-loop request's five-way time
// split. The components telescope to now-created exactly; see
// RequestSample.
func (c *Collector) ReqComplete(src, dest int, created, firstIssue, lastIssue, arrive, reply, now int64) {
	c.reqs.completed++
	c.reqs.clientQueue += firstIssue - created
	c.reqs.retryWait += lastIssue - firstIssue
	c.reqs.forward += arrive - lastIssue
	c.reqs.service += reply - arrive
	c.reqs.reply += now - reply
	if src >= 0 && src < len(c.srcs) {
		c.srcs[src].count++
	}
	if dest >= 0 && dest < len(c.dsts) {
		c.dsts[dest].count++
	}
	if c.opt.OnRequest != nil {
		c.opt.OnRequest(RequestSample{
			Src: src, Dest: dest, Created: created, FirstIssue: firstIssue,
			LastIssue: lastIssue, Arrive: arrive, Reply: reply, Done: now,
		})
	}
}

// ReqGiveUp records a closed-loop request abandoned after exhausting
// its attempts, with the client time it burned.
func (c *Collector) ReqGiveUp(src, dest int, created, now int64) {
	c.reqs.giveUps++
	c.reqs.giveUpTime += now - created
}
