// Package probe is the flight-recorder instrumentation layer shared by
// the packet engine (queuesim, running both fabrics, and through it
// core's per-request face) and the closed-loop layer. It has two
// surfaces:
//
//   - Sampled packet tracing: every ~Nth accepted injection (jittered,
//     deterministic from Options.Seed, so traces replay) is given a
//     trace record in a preallocated ring; the engine reports per-hop
//     events (traverse, block, park, drop, deliver, ...) against it.
//     Buffered engines identify sampled packets by setting
//     ringbuf.TraceBit in the packed packet word and calling the
//     pkt-keyed TagInject/Hop/Close; engines that track in-flight work
//     by slot (closed-loop requests, depth-0 paths) hold the
//     record handle directly and call SampleInject/HopRec/CloseRec.
//   - Per-stage, per-cycle heat metrics: engines accumulate counters
//     into a per-cycle scratch row via AddStage and fold it into
//     stats.TimeSeries-backed bins at EndCycle.
//
// The contract with the engines' hot paths: a nil *Probe costs exactly
// one predictable branch per instrumentation site and zero allocations
// (CI-pinned by BenchmarkProbeOff), and an attached probe observes
// without perturbing — it never changes a routing, arbitration, or
// queueing decision, so traced runs are bit-identical to untraced ones.
// The attached probe itself may allocate (its key map grows); only the
// nil path is alloc-free.
package probe

import (
	"sort"

	"edn/internal/ringbuf"
	"edn/internal/stats"
	"edn/internal/xrand"
)

// Options configures a Probe. The zero value of SampleEvery disables
// tracing (a heat-only probe); the remaining zeros take defaults.
type Options struct {
	// SampleEvery samples on average one accepted injection in this
	// many (jittered uniformly over [1, 2*SampleEvery-1] so sampling
	// never phase-locks with periodic traffic). 1 samples everything;
	// 0 disables tracing.
	SampleEvery int
	// TraceCap is the trace-record ring size (default 1024). Older
	// completed records are overwritten flight-recorder style; records
	// still in flight are never evicted.
	TraceCap int
	// MaxHops caps hops retained per record (default 32). When a
	// record fills, intermediate hops stop accumulating but the
	// terminal hop always lands (it replaces the last hop).
	MaxHops int
	// Bins is the number of heat time bins (default 64).
	Bins int
	// BinCycles is how many measured cycles fold into one heat bin
	// (default 1). The sweep layer sets this to cover the measurement
	// window; lifetime sweeps align it with epochs.
	BinCycles int
	// Seed drives the sampling jitter (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.TraceCap == 0 {
		o.TraceCap = 1024
	}
	if o.MaxHops == 0 {
		o.MaxHops = 32
	}
	if o.Bins == 0 {
		o.Bins = 64
	}
	if o.BinCycles == 0 {
		o.BinCycles = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Probe is one engine's flight recorder. Create with New, attach with
// the engine's SetProbe (which calls Bind to shape the heat surface).
// Not safe for concurrent use; sharded sweeps attach one probe per
// shard and merge Reports.
type Probe struct {
	opts Options
	rng  *xrand.Rand
	gap  int // accepted injections left until the next sample

	recs    []Trace
	hops    []Hop // backing storage: TraceCap rows of MaxHops
	cursor  int
	sampled int64
	keys    map[uint64]int32 // tagged packet word -> record index

	stages   int
	metrics  []string
	heat     *Heat
	scratch  []float64 // per-cycle [metric][stage] counters
	cycleIdx int
}

// New builds a probe. The trace ring is fully preallocated here; the
// heat surface is shaped at Bind time (the engine knows its stage
// count).
func New(opts Options) *Probe {
	opts = opts.withDefaults()
	p := &Probe{
		opts: opts,
		rng:  xrand.New(opts.Seed),
	}
	if opts.SampleEvery > 0 {
		p.recs = make([]Trace, opts.TraceCap)
		p.hops = make([]Hop, opts.TraceCap*opts.MaxHops)
		p.keys = make(map[uint64]int32, opts.TraceCap)
		p.gap = p.drawGap()
	}
	return p
}

// Tracing reports whether packet sampling is enabled.
func (p *Probe) Tracing() bool { return p.opts.SampleEvery > 0 }

// Bind shapes the probe's heat surface for an engine: stages per-stage
// rows and the engine's metric names. Engines call it from SetProbe.
// Rebinding resets heat accumulation but keeps collected traces.
func (p *Probe) Bind(stages int, metrics []string) {
	p.stages = stages
	p.metrics = metrics
	p.heat = newHeat(metrics, stages, p.opts.Bins, p.opts.BinCycles)
	p.scratch = make([]float64, len(metrics)*stages)
	p.cycleIdx = 0
}

func (p *Probe) drawGap() int {
	n := p.opts.SampleEvery
	if n <= 1 {
		return 1
	}
	return 1 + p.rng.Intn(2*n-1)
}

// sampleDue consumes one accepted injection and reports whether it is
// the one to sample.
func (p *Probe) sampleDue() bool {
	if p.opts.SampleEvery <= 0 {
		return false
	}
	p.gap--
	if p.gap > 0 {
		return false
	}
	p.gap = p.drawGap()
	return true
}

// alloc claims a trace record, overwriting the oldest completed one.
// Records still in flight are skipped, never evicted: engines hold
// record handles across cycles, and reusing a live slot would corrupt
// them. Returns -1 when every record is in flight.
func (p *Probe) alloc(input, dest int, inject int64) int32 {
	n := len(p.recs)
	for k := 0; k < n; k++ {
		idx := p.cursor + k
		if idx >= n {
			idx -= n
		}
		r := &p.recs[idx]
		if r.ID != 0 && !r.Done {
			continue
		}
		p.cursor = idx + 1
		if p.cursor == n {
			p.cursor = 0
		}
		p.sampled++
		base := idx * p.opts.MaxHops
		*r = Trace{
			ID:     p.sampled,
			Input:  input,
			Dest:   dest,
			Inject: inject,
			Hops:   p.hops[base : base : base+p.opts.MaxHops],
		}
		return int32(idx)
	}
	return -1
}

// SampleInject offers one accepted injection for sampling and returns
// a record handle (-1: not sampled). Slot-tracking engines keep the
// handle and report hops with HopRec/CloseRec; the caller records the
// first hop itself (EvInject or EvIssue).
func (p *Probe) SampleInject(input, dest int, now int64) int32 {
	if !p.sampleDue() {
		return -1
	}
	return p.alloc(input, dest, now)
}

// TagInject offers one accepted injection for sampling in a buffered
// engine. When sampled, it returns the packet word with
// ringbuf.TraceBit set (keying the record) and stamps the EvInject
// hop; otherwise it returns pkt unchanged. A duplicate key (two live
// sampled packets packing identically) skips sampling rather than
// confusing two flights.
func (p *Probe) TagInject(input int, pkt uint64, now int64) uint64 {
	if !p.sampleDue() {
		return pkt
	}
	key := pkt | ringbuf.TraceBit
	if _, dup := p.keys[key]; dup {
		return pkt
	}
	rec := p.alloc(input, ringbuf.Dest(pkt), now)
	if rec < 0 {
		return pkt
	}
	p.keys[key] = rec
	p.HopRec(rec, 0, EvInject, now)
	return key
}

// Hop records a non-terminal event against a tagged packet. Untagged
// packets return immediately.
func (p *Probe) Hop(pkt uint64, stage int, ev Event, now int64) {
	if pkt&ringbuf.TraceBit == 0 {
		return
	}
	if rec, ok := p.keys[pkt]; ok {
		p.HopRec(rec, stage, ev, now)
	}
}

// Close records a terminal event against a tagged packet and releases
// its key.
func (p *Probe) Close(pkt uint64, stage int, ev Event, now int64) {
	if pkt&ringbuf.TraceBit == 0 {
		return
	}
	if rec, ok := p.keys[pkt]; ok {
		delete(p.keys, pkt)
		p.CloseRec(rec, stage, ev, now)
	}
}

// HopRec records a non-terminal event against a record handle. A hop
// identical in (stage, event) to the record's last hop is skipped, so
// a packet blocked in place for many cycles costs one hop, not one per
// cycle. rec < 0 is a no-op.
func (p *Probe) HopRec(rec int32, stage int, ev Event, now int64) {
	if rec < 0 {
		return
	}
	r := &p.recs[rec]
	if r.Done {
		return
	}
	if n := len(r.Hops); n > 0 {
		if last := &r.Hops[n-1]; last.Stage == stage && last.Event == ev {
			return
		}
	}
	if len(r.Hops) < cap(r.Hops) {
		r.Hops = append(r.Hops, Hop{Cycle: now, Stage: stage, Event: ev})
	}
}

// CloseRec records a terminal event and closes the record. The
// terminal hop always lands: if the record is full it replaces the
// last hop.
func (p *Probe) CloseRec(rec int32, stage int, ev Event, now int64) {
	if rec < 0 {
		return
	}
	r := &p.recs[rec]
	if r.Done {
		return
	}
	h := Hop{Cycle: now, Stage: stage, Event: ev}
	if len(r.Hops) < cap(r.Hops) {
		r.Hops = append(r.Hops, h)
	} else if n := len(r.Hops); n > 0 {
		r.Hops[n-1] = h
	}
	r.Done = true
}

// AddStage accumulates v into the current cycle's (metric, stage) heat
// cell. Metric indices follow the engine's Bind order.
func (p *Probe) AddStage(metric, stage int, v float64) {
	p.scratch[metric*p.stages+stage] += v
}

// EndCycle folds the cycle's heat counters into the current time bin
// and advances the cycle index. Cycles beyond Bins*BinCycles pile into
// the last bin rather than being lost.
func (p *Probe) EndCycle() {
	if p.heat == nil {
		return
	}
	bin := p.cycleIdx / p.heat.BinCycles
	if bin >= p.heat.Bins {
		bin = p.heat.Bins - 1
	}
	for m := range p.metrics {
		row := m * p.stages
		for s := 0; s < p.stages; s++ {
			p.heat.Series[m][s].Add(bin, p.scratch[row+s])
			p.scratch[row+s] = 0
		}
	}
	p.cycleIdx++
}

// Report is a probe's collected output: the retained traces in
// sampling order, the heat surface, and the total number of packets
// ever sampled (>= len(Traces) once the ring has wrapped).
type Report struct {
	Sampled int64
	Traces  []Trace
	Heat    *Heat
}

// Report snapshots the probe. Traces are deep copies sorted by ID;
// the probe can keep recording afterwards.
func (p *Probe) Report() *Report {
	rep := &Report{Sampled: p.sampled}
	for i := range p.recs {
		r := &p.recs[i]
		if r.ID == 0 {
			continue
		}
		c := *r
		c.Hops = append([]Hop(nil), r.Hops...)
		rep.Traces = append(rep.Traces, c)
	}
	sort.Slice(rep.Traces, func(i, j int) bool { return rep.Traces[i].ID < rep.Traces[j].ID })
	if p.heat != nil {
		rep.Heat = p.heat.Clone()
	}
	return rep
}

// Merge folds another shard's report into r: heat surfaces pool
// exactly, traces concatenate (shard seeds keep IDs meaningful within
// a shard; sweeps sample traces on a single designated shard so the
// merged trace set is shard-count independent).
func (r *Report) Merge(o *Report) error {
	if o == nil {
		return nil
	}
	r.Sampled += o.Sampled
	r.Traces = append(r.Traces, o.Traces...)
	if o.Heat != nil {
		if r.Heat == nil {
			r.Heat = o.Heat.Clone()
		} else if err := r.Heat.Merge(o.Heat); err != nil {
			return err
		}
	}
	return nil
}

// LatencyHistogram builds a histogram over the completed traces'
// latencies — the sampled cohort's view of the engine's own latency
// histogram (same shape as the engines': 4096 buckets of width 1, so
// integer cycle latencies quantile exactly).
func (r *Report) LatencyHistogram() *stats.Histogram {
	h := stats.NewHistogram(4096, 1)
	for i := range r.Traces {
		if lat, ok := r.Traces[i].Latency(); ok {
			h.Add(lat)
		}
	}
	return h
}

// EventCounts tallies hops by (event, stage) across every trace:
// counts[ev][stage]. Stages above maxStage are clamped into the last
// row (closed-loop attempt numbers can exceed the stage count).
func (r *Report) EventCounts(maxStage int) [][]int64 {
	counts := make([][]int64, numEvents)
	for e := range counts {
		counts[e] = make([]int64, maxStage+1)
	}
	for i := range r.Traces {
		for _, h := range r.Traces[i].Hops {
			s := h.Stage
			if s > maxStage {
				s = maxStage
			}
			if s < 0 {
				s = 0
			}
			counts[h.Event][s]++
		}
	}
	return counts
}
