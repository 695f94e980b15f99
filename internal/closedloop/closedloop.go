// Package closedloop layers a request/response workload on top of the
// packet-level engines (internal/queuesim for EDNs, internal/dilatedsim
// for dilated deltas). Everything measured through the open-loop
// harnesses sprays independent packets; the workload the paper's
// networks were built for is closed-loop — a processor issues a memory
// request, waits for the reply to come back through the fabric, retries
// on loss, and moves on only when the round trip completes.
//
// The orchestrator drives two fabric instances of identical geometry: a
// forward fabric carrying requests from the Inputs sources to the
// Outputs memory ports, and a return fabric carrying replies back. When
// the geometry is non-square (an EDN has b*c/a > 1 fan-out), memory
// ports share return-fabric inputs through an r = Outputs/Inputs
// concentrator: port m replies through return input m/r, and source i
// receives replies at its home output i*r. A square fabric degenerates
// to the identity on both sides.
//
// Each source holds a window of W outstanding request slots. A demand
// that arrives while the backlog ring is full is shed at the source;
// otherwise it waits in the backlog until a slot and the forward input
// are both free. Losses — packets dropped by policy, parked behind
// faults, or simply late — are detected by a per-attempt timeout and
// re-issued under a configurable retry policy (immediate, capped
// exponential backoff with deterministic xrand jitter, give-up-after-N
// attempts). Destination draws consult an avoidance list fed by
// fault-mask reachability (SetLiveOutputs), so sources stop addressing
// memory ports the current fault state has cut off.
//
// Timeouts are attempt-scoped: a request that was written off but whose
// packet later arrives anyway is counted (Orphans at the memory side,
// StaleReplies at the source side) and discarded, never double-
// completed. The Ledger extends the engines' packet-conservation
// invariant to the request layer; CheckConservation asserts both layers
// after any cycle.
//
// The steady-state advance is allocation-free: slots are a fixed pool
// linked through intrusive lists, the backlogs are one preallocated
// FIFO store (a ringbuf.Rings of one FIFO per source, as deep as the
// power of two at or above MaxBacklog, so it never grows), and
// the engine delivery hooks are installed once at construction.
// BenchmarkClosedLoopCycle pins 0 allocs/op over both fabrics.
package closedloop

import (
	"fmt"

	"edn/internal/anatomy"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/ringbuf"
	"edn/internal/stats"
	"edn/internal/xrand"
)

// NoRequest marks an idle input in an injection vector.
const NoRequest = queuesim.NoRequest

// Engine is the slice of the packet-engine surface the orchestrator
// drives. queuesim.Network satisfies it, over either fabric (a
// dilatedsim.Network is the same engine behind a typed face); the
// seam lets a caller decorate the engine, for example to time it.
type Engine interface {
	Cycle(dest []int) (queuesim.CycleStats, error)
	InputFree(i int) bool
	Queued() int64
	Totals() queuesim.Totals
	Now() int64
	SetDeliveryHook(func(dest int, inject int64))
}

// RetryPolicy selects how a timed-out request is rescheduled.
type RetryPolicy int

const (
	// RetryImmediate re-issues a timed-out request as soon as a forward
	// input slot is free, with no waiting period.
	RetryImmediate RetryPolicy = iota
	// RetryBackoff waits a capped exponential delay before re-issuing:
	// attempt k (1-based) waits min(BackoffCap, BackoffBase<<(k-1))
	// cycles, jittered deterministically to a uniform draw in
	// [ceil(d/2), d] from the loop's own xrand stream.
	RetryBackoff
)

// String renders the policy for reports.
func (p RetryPolicy) String() string {
	switch p {
	case RetryImmediate:
		return "immediate"
	case RetryBackoff:
		return "backoff"
	default:
		return fmt.Sprintf("retry(%d)", int(p))
	}
}

// ParseRetryPolicy is the inverse of RetryPolicy.String, for flags.
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	switch s {
	case "immediate", "imm":
		return RetryImmediate, nil
	case "backoff", "exp":
		return RetryBackoff, nil
	default:
		return 0, fmt.Errorf("closedloop: unknown retry policy %q (want immediate or backoff)", s)
	}
}

// SLA is a response-deadline curve: a completion within Deadline cycles
// earns full credit 1, credit decays linearly to 0 at Zero cycles, and
// anything slower earns nothing. Zero <= Deadline degenerates to a step
// at Deadline. A zero-valued SLA (Deadline <= 0) disables weighting:
// every completion earns 1, so SLA-weighted goodput equals goodput.
type SLA struct {
	Deadline float64
	Zero     float64
}

// Weight returns the credit earned by a completion with the given
// end-to-end latency.
func (s SLA) Weight(lat float64) float64 {
	if s.Deadline <= 0 || lat <= s.Deadline {
		return 1
	}
	if s.Zero <= s.Deadline || lat >= s.Zero {
		return 0
	}
	return (s.Zero - lat) / (s.Zero - s.Deadline)
}

// Options configures a closed-loop workload.
type Options struct {
	// Window is the per-source outstanding-request limit W (default 4).
	Window int
	// Rate is the per-source demand probability per cycle in [0, 1].
	Rate float64
	// ServiceCycles is the memory service time between a request's
	// arrival and its reply becoming ready (default 1, minimum 1).
	ServiceCycles int
	// Timeout is the per-attempt round-trip deadline in cycles; an
	// attempt not completed Timeout cycles after issue is written off
	// and rescheduled (default 64).
	Timeout int
	// MaxAttempts caps the issue count per request; a request timing out
	// on its MaxAttempts-th attempt is given up. 0 retries forever.
	MaxAttempts int
	// Retry selects the rescheduling policy (default RetryImmediate).
	Retry RetryPolicy
	// BackoffBase and BackoffCap shape RetryBackoff (defaults 2 and 64).
	BackoffBase int
	BackoffCap  int
	// MaxBacklog bounds the per-source demand queue; arrivals beyond it
	// are shed (default 64).
	MaxBacklog int
	// SLA is the response-deadline curve for weighted goodput (zero
	// value: unweighted).
	SLA SLA
	// Seed derives the three deterministic streams: demand coins,
	// destination draws, and backoff jitter (default 1). Two loops with
	// the same seed, source count and rate draw bit-identical demand
	// coins regardless of fabric, which is what makes EDN-vs-dilated
	// comparisons replay-matched at the request level.
	Seed uint64
	// LatencyBuckets and LatencyBucketWidth shape the end-to-end latency
	// histogram (defaults: 4096 buckets of 1 cycle).
	LatencyBuckets     int
	LatencyBucketWidth float64
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.ServiceCycles <= 0 {
		o.ServiceCycles = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 64
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 64
	}
	if o.MaxBacklog <= 0 {
		o.MaxBacklog = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LatencyBuckets <= 0 {
		o.LatencyBuckets = 4096
	}
	if o.LatencyBucketWidth <= 0 {
		o.LatencyBucketWidth = 1
	}
	return o
}

// Ledger is the request-level conservation ledger. The cumulative
// counters never reset; Backlogged, InFlight and RetryWaiting are
// instantaneous gauges. Two balances hold after every cycle:
//
//	Offered == Shed + Backlogged + Issued
//	Issued  == Completed + GivenUp + InFlight + RetryWaiting
//
// RetryWaiting is the "Retrying + TimedOut-pending" population: every
// request whose latest attempt was written off and which now waits for
// its retry delay (or the forward input) before re-issuing. A third
// balance ties the layers together — every issue or retry injects
// exactly one forward packet, so ForwardInjected == Issued + Retries.
// CheckConservation asserts all of these plus both engines' own packet
// ledgers.
type Ledger struct {
	Offered   int64 // demands generated at the sources
	Shed      int64 // demands dropped because the backlog ring was full
	Issued    int64 // requests that entered the window (first attempts)
	Completed int64 // round trips finished (reply delivered in time)
	GivenUp   int64 // requests abandoned after MaxAttempts timeouts
	Timeouts  int64 // attempts written off at their deadline
	Retries   int64 // re-issues after a timeout
	Orphans   int64 // written-off requests arriving late at the memory
	Stale     int64 // written-off replies arriving late at the source
	Avoided   int64 // destination draws steered by the avoidance list

	Backlogged   int64 // gauge: demands waiting in source backlogs
	InFlight     int64 // gauge: requests with a live attempt in either fabric or in service
	RetryWaiting int64 // gauge: timed-out requests waiting to re-issue
}

// CycleStats reports one closed-loop cycle.
type CycleStats struct {
	Arrived   int // demands accepted into backlogs
	Shed      int // demands shed at full backlogs
	Issued    int // first attempts injected
	Retried   int // retry attempts injected
	Completed int // round trips finished
	TimedOut  int // attempts written off
	GivenUp   int // requests abandoned
}

// slot states.
const (
	slotFree    uint8 = iota
	slotFwd           // request packet in the forward fabric
	slotService       // at the memory port (serving, or waiting for the return input)
	slotReply         // reply packet in the return fabric
	slotRetry         // timed out, waiting to re-issue
)

// slot is one pooled in-flight request record. Slots live in a fixed
// array (W per source) and thread through the per-key intrusive lists
// below, so the steady state never allocates.
type slot struct {
	state     uint8
	attempts  int32
	src       int32 // owning source
	dest      int32 // memory port
	createdAt int64 // demand arrival cycle (latency epoch)
	issuedAt  int64 // forward injection cycle of the current attempt
	firstAt   int64 // forward injection cycle of the first attempt
	deadline  int64 // issuedAt + Timeout
	readyAt   int64 // service completion cycle (slotService)
	replyAt   int64 // return injection cycle (slotReply)
	nextRetry int64 // earliest re-issue cycle (slotRetry)
	prev      int32
	next      int32
	trace     int32 // probe trace record handle, -1 = untraced
}

// Loop orchestrates one closed-loop workload over a forward and a
// return fabric. Build one with New, advance it with Cycle, and read
// the Ledger, latency histogram and SLA credit at any cycle boundary.
// Not safe for concurrent use; sharded harnesses build one per shard.
type Loop struct {
	fwd, rev Engine
	inputs   int // sources = fabric inputs
	outputs  int // memory ports = fabric outputs
	ratio    int // outputs / inputs (concentration factor)
	opts     Options

	slots            []slot
	fwdHead, fwdTail []int32       // [memory port] slotFwd requests keyed by destination
	svcHead, svcTail []int32       // [return input] slotService requests keyed by port group
	repHead, repTail []int32       // [source] slotReply requests keyed by owner
	backlog          ringbuf.Rings // one FIFO of packed demands per source
	destFwd, destRev []int

	demandRng  *xrand.Rand
	destRng    *xrand.Rand
	backoffRng *xrand.Rand
	demand     xrand.Coin // each source's per-cycle demand coin, Bool(Rate)
	arrived    []int32    // this cycle's arriving sources (Arrivals)

	liveOut   []bool
	liveList  []int32
	liveCount int

	now    int64
	led    Ledger
	lat    *stats.Histogram
	slaSum float64
	cycle  CycleStats

	// probe, when set, flight-records sampled requests (Hop.Stage is the
	// attempt number) and per-cycle ledger gauges; see SetProbe.
	probe *probe.Probe

	// anat, when set, receives every completed request's five-way time
	// split (client-queue / retry-wait / forward-fabric / service /
	// reply-fabric); see SetAnatomy.
	anat *anatomy.Collector
}

// New builds a closed-loop workload over the given fabrics. fwd and rev
// must be two fresh engine instances (cycle 0) of identical geometry —
// inputs injection ports and outputs delivery ports each; outputs must
// be a multiple of inputs (1x for square fabrics, the EDN fan-out
// otherwise). New installs the delivery hooks on both engines.
func New(fwd, rev Engine, inputs, outputs int, opts Options) (*Loop, error) {
	opts = opts.withDefaults()
	switch {
	case inputs < 1:
		return nil, fmt.Errorf("closedloop: %d sources invalid", inputs)
	case outputs < inputs || outputs%inputs != 0:
		return nil, fmt.Errorf("closedloop: %d memory ports not a multiple of %d sources", outputs, inputs)
	case !(opts.Rate >= 0 && opts.Rate <= 1): // NaN included
		return nil, fmt.Errorf("closedloop: demand rate %g outside [0,1]", opts.Rate)
	case opts.MaxAttempts < 0:
		return nil, fmt.Errorf("closedloop: MaxAttempts %d negative", opts.MaxAttempts)
	case opts.BackoffCap < opts.BackoffBase:
		return nil, fmt.Errorf("closedloop: backoff cap %d below base %d", opts.BackoffCap, opts.BackoffBase)
	case fwd.Now() != 0 || rev.Now() != 0:
		return nil, fmt.Errorf("closedloop: fabrics must be fresh (forward at cycle %d, return at %d)", fwd.Now(), rev.Now())
	}
	switch opts.Retry {
	case RetryImmediate, RetryBackoff:
	default:
		return nil, fmt.Errorf("closedloop: unknown retry policy %d", int(opts.Retry))
	}
	l := &Loop{
		fwd:     fwd,
		rev:     rev,
		inputs:  inputs,
		outputs: outputs,
		ratio:   outputs / inputs,
		opts:    opts,
		slots:   make([]slot, inputs*opts.Window),
		fwdHead: newLinks(outputs), fwdTail: newLinks(outputs),
		svcHead: newLinks(inputs), svcTail: newLinks(inputs),
		repHead: newLinks(inputs), repTail: newLinks(inputs),
		backlog:  ringbuf.NewRings(inputs, opts.MaxBacklog),
		destFwd:  make([]int, inputs),
		destRev:  make([]int, inputs),
		liveOut:  make([]bool, outputs),
		liveList: make([]int32, outputs),
		demand:   xrand.NewCoin(opts.Rate),
		arrived:  make([]int32, inputs),
		lat:      stats.NewHistogram(opts.LatencyBuckets, opts.LatencyBucketWidth),
	}
	root := xrand.New(opts.Seed)
	l.demandRng = root.Split()
	l.destRng = root.Split()
	l.backoffRng = root.Split()
	for i := range l.slots {
		l.slots[i].prev, l.slots[i].next, l.slots[i].trace = -1, -1, -1
	}
	if err := l.SetLiveOutputs(nil); err != nil {
		return nil, err
	}
	fwd.SetDeliveryHook(l.onRequestDelivered)
	rev.SetDeliveryHook(l.onReplyDelivered)
	return l, nil
}

func newLinks(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Inputs returns the source count.
func (l *Loop) Inputs() int { return l.inputs }

// Outputs returns the memory-port count.
func (l *Loop) Outputs() int { return l.outputs }

// Now returns the number of cycles advanced.
func (l *Loop) Now() int64 { return l.now }

// Ledger returns a snapshot of the request ledger.
func (l *Loop) Ledger() Ledger { return l.led }

// Latency returns the live end-to-end latency histogram, measured in
// cycles from demand arrival at the source to reply delivery — backlog
// wait, every attempt, service and the return transit included.
func (l *Loop) Latency() *stats.Histogram { return l.lat }

// ResetLatency starts a fresh latency measurement window.
func (l *Loop) ResetLatency() { l.lat.Reset() }

// SLACredit returns the cumulative response-deadline credit earned by
// completions: each completed round trip adds Options.SLA.Weight of its
// end-to-end latency. With the zero SLA this equals Ledger().Completed.
func (l *Loop) SLACredit() float64 { return l.slaSum }

// ProbeMetrics names the per-cycle heat gauges this layer reports, in
// the AddStage index order of the pm* constants. The closed-loop probe
// has a single "stage": its metrics are ledger gauges, not per-network-
// stage counters (attach probes to the fabrics for those).
var ProbeMetrics = []string{"backlogged", "in_flight", "retry_waiting", "timeouts"}

const (
	pmBacklogged = iota
	pmInFlight
	pmRetryWaiting
	pmTimeouts
)

// SetProbe attaches a flight-recorder probe to the request layer (nil
// detaches). Sampled requests record issue/timeout/retry/complete/
// give-up hops with Hop.Stage carrying the attempt number; the
// non-perturbation contract matches the engines' SetProbe. Not safe to
// swap mid-cycle.
func (l *Loop) SetProbe(p *probe.Probe) {
	l.probe = p
	for i := range l.slots {
		l.slots[i].trace = -1
	}
	if p != nil {
		p.Bind(1, ProbeMetrics)
	}
}

// SetAnatomy attaches a latency-anatomy collector to the request layer
// (nil detaches): every completed request reports its five-way time
// split — client-queue, retry-wait, forward-fabric, service (inclusive
// of reply-injection wait at the server), reply-fabric — which sums
// exactly to its completion latency. The fabric-internal per-stage
// breakdown is available by running the same geometry in latency or
// saturation mode. The non-perturbation contract matches SetProbe.
// Not safe to swap mid-cycle.
func (l *Loop) SetAnatomy(a *anatomy.Collector) {
	l.anat = a
	if a != nil {
		a.BindRequests(l.inputs, l.outputs)
	}
}

// SetLiveOutputs installs the avoidance list: live[m] reports whether
// memory port m is currently reachable (typically a fault mask's
// ReachableOutputsInto vector). New destination draws are steered to
// live ports; requests already addressed are left to time out. nil
// restores the fault-free list. If nothing is live the list is ignored
// — draws fall back to the full range and time out naturally.
func (l *Loop) SetLiveOutputs(live []bool) error {
	if live == nil {
		for i := range l.liveOut {
			l.liveOut[i] = true
			l.liveList[i] = int32(i)
		}
		l.liveCount = l.outputs
		return nil
	}
	if len(live) != l.outputs {
		return fmt.Errorf("closedloop: live list has %d ports, want %d", len(live), l.outputs)
	}
	n := 0
	for m, ok := range live {
		l.liveOut[m] = ok
		if ok {
			l.liveList[n] = int32(m)
			n++
		}
	}
	l.liveCount = n
	return nil
}

// Arrivals returns into[:k], the k sources among 0..len(into)-1 whose
// demand coin comes up this cycle, in source order. A coin that draws
// takes one draw per source, so source i's draw lies at offset i+1 of
// rng: Arrivals takes each at its offset, appends the source without a
// branch, and advances rng past them all, exactly as one Bool(rate) per
// source in source order would. At rate 0 or 1 the coin takes no draw,
// and no source or every source arrives.
func Arrivals(into []int32, coin xrand.Coin, rng *xrand.Rand) []int32 {
	if coin.Draws == 0 {
		k := coin.Hit(0) * uint64(len(into))
		for i := range into[:k] {
			into[i] = int32(i)
		}
		return into[:k]
	}
	k := uint64(0)
	for i := range into {
		into[k] = int32(i)
		k += coin.Hit(rng.Peek(uint64(i) + 1))
	}
	rng.Skip(uint64(len(into)))
	return into[:k]
}

// drawDest draws a destination memory port for a new demand.
func (l *Loop) drawDest() int {
	if l.liveCount == l.outputs || l.liveCount == 0 {
		return l.destRng.Intn(l.outputs)
	}
	l.led.Avoided++
	return int(l.liveList[l.destRng.Intn(l.liveCount)])
}

// retryDelay returns the wait before re-issuing after the given number
// of completed attempts.
func (l *Loop) retryDelay(attempts int) int64 {
	if l.opts.Retry == RetryImmediate {
		return 0
	}
	d := l.opts.BackoffCap
	if shift := attempts - 1; shift < 31 && l.opts.BackoffBase<<shift < d {
		d = l.opts.BackoffBase << shift
	}
	lo := (d + 1) / 2
	return int64(lo + l.backoffRng.Intn(d-lo+1))
}

// list plumbing: append at tail, unlink anywhere. k is the list key
// (memory port, return input, or source depending on the family).
func (l *Loop) listAppend(head, tail []int32, k int, s int32) {
	sl := &l.slots[s]
	sl.prev, sl.next = tail[k], -1
	if tail[k] >= 0 {
		l.slots[tail[k]].next = s
	} else {
		head[k] = s
	}
	tail[k] = s
}

func (l *Loop) listRemove(head, tail []int32, k int, s int32) {
	sl := &l.slots[s]
	if sl.prev >= 0 {
		l.slots[sl.prev].next = sl.next
	} else {
		head[k] = sl.next
	}
	if sl.next >= 0 {
		l.slots[sl.next].prev = sl.prev
	} else {
		tail[k] = sl.prev
	}
	sl.prev, sl.next = -1, -1
}

// onRequestDelivered is the forward fabric's delivery hook: a request
// packet for memory port dest, injected at cycle inject (32-bit
// truncated), just retired. Match it to the oldest outstanding attempt
// with that (port, cycle) pair; a miss is a late arrival of a
// written-off attempt.
func (l *Loop) onRequestDelivered(dest int, inject int64) {
	for s := l.fwdHead[dest]; s >= 0; s = l.slots[s].next {
		sl := &l.slots[s]
		if int64(uint32(sl.issuedAt)) == inject {
			l.listRemove(l.fwdHead, l.fwdTail, dest, s)
			sl.state = slotService
			sl.readyAt = l.now + int64(l.opts.ServiceCycles)
			l.listAppend(l.svcHead, l.svcTail, dest/l.ratio, s)
			return
		}
	}
	l.led.Orphans++
}

// onReplyDelivered is the return fabric's delivery hook: a reply for
// home output dest just retired at the owning source. A miss is a stale
// reply whose request was already written off.
func (l *Loop) onReplyDelivered(dest int, inject int64) {
	src := dest / l.ratio
	for s := l.repHead[src]; s >= 0; s = l.slots[s].next {
		sl := &l.slots[s]
		if int64(uint32(sl.replyAt)) == inject {
			l.listRemove(l.repHead, l.repTail, src, s)
			lat := float64(l.now - sl.createdAt)
			l.lat.Add(lat)
			l.slaSum += l.opts.SLA.Weight(lat)
			l.led.Completed++
			l.led.InFlight--
			sl.state = slotFree
			l.cycle.Completed++
			if l.probe != nil {
				l.probe.CloseRec(sl.trace, int(sl.attempts), probe.EvComplete, l.now)
				sl.trace = -1
			}
			if l.anat != nil {
				arrive := sl.readyAt - int64(l.opts.ServiceCycles)
				l.anat.ReqComplete(int(sl.src), int(sl.dest), sl.createdAt,
					sl.firstAt, sl.issuedAt, arrive, sl.replyAt, l.now)
			}
			return
		}
	}
	l.led.Stale++
}

// Cycle advances the workload and both fabrics by one cycle: demand
// arrivals, the timeout scan, forward issue (retries first, then fresh
// requests from the backlog), the forward fabric cycle, reply issue at
// the memory side, and the return fabric cycle. The whole advance is
// allocation-free in steady state.
func (l *Loop) Cycle() (CycleStats, error) {
	l.now++
	l.cycle = CycleStats{}

	// Demand arrivals. One coin per source per cycle from the demand
	// stream, drawn in source order regardless of fabric, keeps two
	// same-seed loops bit-identical in what they offer. The coins share
	// no draw with the destinations (destRng), so Arrivals takes them all
	// first, and the arriving sources then draw their destinations in
	// source order, as a coin-then-destination loop per source would.
	for _, i := range Arrivals(l.arrived, l.demand, l.demandRng) {
		l.led.Offered++
		if !l.backlog.HasSpace(int(i), l.opts.MaxBacklog) {
			l.led.Shed++
			l.cycle.Shed++
			continue
		}
		l.backlog.Push(int(i), ringbuf.Pack(l.drawDest(), l.now))
		l.led.Backlogged++
		l.cycle.Arrived++
	}

	// Timeout scan: write off every attempt past its deadline, wherever
	// it is in the round trip.
	for s := range l.slots {
		sl := &l.slots[s]
		if sl.state == slotFree || sl.state == slotRetry || l.now < sl.deadline {
			continue
		}
		switch sl.state {
		case slotFwd:
			l.listRemove(l.fwdHead, l.fwdTail, int(sl.dest), int32(s))
		case slotService:
			l.listRemove(l.svcHead, l.svcTail, int(sl.dest)/l.ratio, int32(s))
		case slotReply:
			l.listRemove(l.repHead, l.repTail, int(sl.src), int32(s))
		}
		l.led.Timeouts++
		l.led.InFlight--
		l.cycle.TimedOut++
		if l.probe != nil {
			l.probe.AddStage(pmTimeouts, 0, 1)
			l.probe.HopRec(sl.trace, int(sl.attempts), probe.EvTimeout, l.now)
		}
		if l.opts.MaxAttempts > 0 && int(sl.attempts) >= l.opts.MaxAttempts {
			sl.state = slotFree
			l.led.GivenUp++
			l.cycle.GivenUp++
			if l.probe != nil {
				l.probe.CloseRec(sl.trace, int(sl.attempts), probe.EvGiveUp, l.now)
				sl.trace = -1
			}
			if l.anat != nil {
				l.anat.ReqGiveUp(int(sl.src), int(sl.dest), sl.createdAt, l.now)
			}
			continue
		}
		sl.state = slotRetry
		sl.nextRetry = l.now + l.retryDelay(int(sl.attempts))
		l.led.RetryWaiting++
	}

	// Forward issue: each source injects at most one request per cycle —
	// the due retry with the earliest deadline first, else the oldest
	// backlogged demand if a window slot is free.
	for i := 0; i < l.inputs; i++ {
		l.destFwd[i] = NoRequest
		base := i * l.opts.Window
		pick, free := -1, -1
		for w := 0; w < l.opts.Window; w++ {
			sl := &l.slots[base+w]
			switch {
			case sl.state == slotRetry && sl.nextRetry <= l.now &&
				(pick < 0 || sl.nextRetry < l.slots[pick].nextRetry):
				pick = base + w
			case sl.state == slotFree && free < 0:
				free = base + w
			}
		}
		if pick < 0 && (free < 0 || l.backlog.Len(i) == 0) {
			continue
		}
		if !l.fwd.InputFree(i) {
			continue
		}
		var s int32
		if pick >= 0 {
			s = int32(pick)
			l.led.RetryWaiting--
			l.led.Retries++
			l.cycle.Retried++
		} else {
			p := l.backlog.Pop(i)
			l.led.Backlogged--
			s = int32(free)
			sl := &l.slots[s]
			sl.src = int32(i)
			sl.dest = int32(ringbuf.Dest(p))
			sl.createdAt = l.now - int64(uint32(l.now)-uint32(p>>32))
			sl.attempts = 0
			l.led.Issued++
			l.cycle.Issued++
		}
		sl := &l.slots[s]
		sl.state = slotFwd
		sl.attempts++
		sl.issuedAt = l.now // the engine stamps injections with this cycle
		if sl.attempts == 1 {
			sl.firstAt = l.now
		}
		sl.deadline = l.now + int64(l.opts.Timeout)
		l.led.InFlight++
		l.listAppend(l.fwdHead, l.fwdTail, int(sl.dest), s)
		l.destFwd[i] = int(sl.dest)
		if l.probe != nil {
			if pick >= 0 {
				l.probe.HopRec(sl.trace, int(sl.attempts), probe.EvRetry, l.now)
			} else {
				sl.trace = -1
				if rec := l.probe.SampleInject(i, int(sl.dest), l.now); rec >= 0 {
					sl.trace = rec
					l.probe.HopRec(rec, 1, probe.EvIssue, l.now)
				}
			}
		}
	}
	if _, err := l.fwd.Cycle(l.destFwd); err != nil {
		return CycleStats{}, err
	}

	// Reply issue: each return input forwards the head of its service
	// queue once service is complete — head-of-line, modeling the
	// port-group concentrator as a single reply injector.
	for r := 0; r < l.inputs; r++ {
		l.destRev[r] = NoRequest
		h := l.svcHead[r]
		if h < 0 || l.slots[h].readyAt > l.now || !l.rev.InputFree(r) {
			continue
		}
		sl := &l.slots[h]
		l.listRemove(l.svcHead, l.svcTail, r, h)
		sl.state = slotReply
		sl.replyAt = l.now
		l.listAppend(l.repHead, l.repTail, int(sl.src), h)
		l.destRev[r] = int(sl.src) * l.ratio
	}
	if _, err := l.rev.Cycle(l.destRev); err != nil {
		return CycleStats{}, err
	}
	if l.probe != nil {
		l.probe.AddStage(pmBacklogged, 0, float64(l.led.Backlogged))
		l.probe.AddStage(pmInFlight, 0, float64(l.led.InFlight))
		l.probe.AddStage(pmRetryWaiting, 0, float64(l.led.RetryWaiting))
		l.probe.EndCycle()
	}
	return l.cycle, nil
}

// CheckConservation asserts the two request-ledger balances, the
// cross-layer balance (forward injections == issues + retries), the
// gauge recounts against the actual slot and backlog state, and both
// engines' packet-conservation invariants. It is cheap enough to call
// every cycle in property tests and every epoch in lifetime sweeps.
func (l *Loop) CheckConservation() error {
	led := l.led
	if led.Offered != led.Shed+led.Backlogged+led.Issued {
		return fmt.Errorf("closedloop: offered %d != shed %d + backlogged %d + issued %d",
			led.Offered, led.Shed, led.Backlogged, led.Issued)
	}
	if led.Issued != led.Completed+led.GivenUp+led.InFlight+led.RetryWaiting {
		return fmt.Errorf("closedloop: issued %d != completed %d + given up %d + in flight %d + retry-waiting %d",
			led.Issued, led.Completed, led.GivenUp, led.InFlight, led.RetryWaiting)
	}
	var backlogged, inFlight, retryWaiting int64
	for i := range l.backlog.Count() {
		backlogged += int64(l.backlog.Len(i))
	}
	for s := range l.slots {
		switch l.slots[s].state {
		case slotFwd, slotService, slotReply:
			inFlight++
		case slotRetry:
			retryWaiting++
		}
	}
	if backlogged != led.Backlogged || inFlight != led.InFlight || retryWaiting != led.RetryWaiting {
		return fmt.Errorf("closedloop: gauges (backlogged %d, in flight %d, retry-waiting %d) disagree with state (%d, %d, %d)",
			led.Backlogged, led.InFlight, led.RetryWaiting, backlogged, inFlight, retryWaiting)
	}
	ft := l.fwd.Totals()
	if ft.Injected != led.Issued+led.Retries {
		return fmt.Errorf("closedloop: forward fabric injected %d != issued %d + retries %d",
			ft.Injected, led.Issued, led.Retries)
	}
	if err := checkPacketLedger("forward", ft, l.fwd.Queued()); err != nil {
		return err
	}
	return checkPacketLedger("return", l.rev.Totals(), l.rev.Queued())
}

func checkPacketLedger(which string, t queuesim.Totals, queued int64) error {
	if t.Injected != t.Refused+t.Delivered+t.Dropped+t.Stranded+queued {
		return fmt.Errorf("closedloop: %s fabric ledger broken: injected %d != refused %d + delivered %d + dropped %d + stranded %d + queued %d",
			which, t.Injected, t.Refused, t.Delivered, t.Dropped, t.Stranded, queued)
	}
	return nil
}
