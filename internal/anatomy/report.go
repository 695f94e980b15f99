package anatomy

import (
	"fmt"
	"sort"

	"edn/internal/stats"
)

// ClassTotals aggregates the attributed time of one packet class. By
// the conservation law, Wait+Block+Service is the class's total
// in-network time (for delivered packets: the sum of their latencies,
// under the engine's latency convention).
type ClassTotals struct {
	Count   int64 `json:"count"`
	Wait    int64 `json:"wait"`
	Block   int64 `json:"block"`
	Service int64 `json:"service"`
}

func (ct *ClassTotals) add(o ClassTotals) {
	ct.Count += o.Count
	ct.Wait += o.Wait
	ct.Block += o.Block
	ct.Service += o.Service
}

// StageTotals is one stage's time ledger: cycles attributed to packets
// queued at this stage, split wait/block/service, the blocking
// ring-cycles this stage's switches *caused* (Blame), and the dwell
// histogram (cycles a packet spends queued at the stage, inclusive of
// its departing cycle).
type StageTotals struct {
	Stage   int   `json:"stage"`
	Wait    int64 `json:"wait"`
	Block   int64 `json:"block"`
	Service int64 `json:"service"`
	Blame   int64 `json:"blame"`
	// Dwell is the exact dwell histogram backing shard merges;
	// stats.Histogram does not serialize, so the JSON surface carries
	// its headline quantiles in DwellSummary instead.
	Dwell        *stats.Histogram `json:"-"`
	DwellSummary DwellSummary     `json:"dwell"`
}

// DwellSummary is the JSON face of a stage's dwell histogram.
type DwellSummary struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func summarizeDwell(h *stats.Histogram) DwellSummary {
	if h == nil || h.N() == 0 {
		return DwellSummary{}
	}
	return DwellSummary{
		N: h.N(), Mean: h.Mean(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}

// SwitchBlame is one switch's entry in the blame ledger: how many
// blocked ring-cycles its full input queues (or contended terminals)
// inflicted on upstream heads.
type SwitchBlame struct {
	Stage  int   `json:"stage"`
	Switch int   `json:"switch"`
	Cycles int64 `json:"cycles"`
}

// Flow is one source's (or destination's) closed-packet ledger.
type Flow struct {
	Count   int64 `json:"count"`
	Wait    int64 `json:"wait"`
	Block   int64 `json:"block"`
	Service int64 `json:"service"`
}

func (f *Flow) add(o Flow) {
	f.Count += o.Count
	f.Wait += o.Wait
	f.Block += o.Block
	f.Service += o.Service
}

// RequestSplit is the closed-loop five-way decomposition of request
// time, summed over completed requests: client-queue (created to first
// issue), retry-wait (first to last issue), forward-fabric (last issue
// to service arrival), service (arrival to reply injection, inclusive
// of reply-queue wait at the server), and reply-fabric. The five sum
// exactly to total completion time.
type RequestSplit struct {
	Completed   int64 `json:"completed"`
	ClientQueue int64 `json:"client_queue"`
	RetryWait   int64 `json:"retry_wait"`
	Forward     int64 `json:"forward"`
	Service     int64 `json:"service"`
	Reply       int64 `json:"reply"`
	GiveUps     int64 `json:"give_ups,omitempty"`
	GiveUpTime  int64 `json:"give_up_time,omitempty"`
}

// Total returns the summed completion time of all completed requests.
func (r *RequestSplit) Total() int64 {
	return r.ClientQueue + r.RetryWait + r.Forward + r.Service + r.Reply
}

// Report is a latency-anatomy snapshot: streaming aggregates only, so
// reports from different shards or runs merge losslessly (except the
// top-K truncation of blame and tree lists).
type Report struct {
	Stages      int           `json:"stages"`
	Inputs      int           `json:"inputs"`
	Outputs     int           `json:"outputs"`
	Cycles      int64         `json:"cycles"`
	Depth0      bool          `json:"depth0,omitempty"`
	Delivered   ClassTotals   `json:"delivered"`
	Dropped     ClassTotals   `json:"dropped"`
	Stranded    ClassTotals   `json:"stranded"`
	PerStage    []StageTotals `json:"per_stage,omitempty"`
	Blame       []SwitchBlame `json:"blame,omitempty"`
	Trees       []Tree        `json:"trees,omitempty"`
	Sources     []Flow        `json:"sources,omitempty"`
	Dests       []Flow        `json:"dests,omitempty"`
	FaultParked int64         `json:"fault_parked,omitempty"`
	Requests    *RequestSplit `json:"requests,omitempty"`

	topK int
}

// Report snapshots the collector into a mergeable Report. It is a
// read-only snapshot: packets still queued count toward the per-stage
// ledgers and FaultParked up to the last EndCycle, on a copy, and trees
// still live are reported as they stand, so it may be called at any
// point between cycles and as often as needed.
func (c *Collector) Report() *Report {
	rep := &Report{
		Stages:      c.lay.Stages,
		Inputs:      c.lay.Inputs,
		Outputs:     c.lay.Outputs,
		Cycles:      c.cycles,
		Depth0:      c.lay.Rings == 0 && !c.hasReqs,
		Delivered:   c.classes[ClassDelivered].totals(),
		Dropped:     c.classes[ClassDropped].totals(),
		Stranded:    c.classes[ClassStranded].totals(),
		FaultParked: c.faultParked,
		topK:        c.opt.topK(),
	}
	if c.hasReqs {
		r := RequestSplit{
			Completed: c.reqs.completed, ClientQueue: c.reqs.clientQueue,
			RetryWait: c.reqs.retryWait, Forward: c.reqs.forward,
			Service: c.reqs.service, Reply: c.reqs.reply,
			GiveUps: c.reqs.giveUps, GiveUpTime: c.reqs.giveUpTime,
		}
		rep.Requests = &r
	}
	if c.lay.Stages > 0 {
		rep.PerStage = make([]StageTotals, c.lay.Stages)
		for i := range rep.PerStage {
			sa := &c.stages[i]
			rep.PerStage[i] = StageTotals{
				Stage: i + 1, Wait: sa.wait, Block: sa.block,
				Service: sa.service, Dwell: sa.hist.Clone(),
				DwellSummary: summarizeDwell(sa.hist),
			}
		}
		c.settleQueued(rep)
		// Fold the per-node blame ledger into per-stage totals and a
		// per-switch top-K list.
		type key struct{ stage, sw int }
		bySwitch := make(map[key]int64)
		for node, cycles := range c.blame {
			if cycles == 0 {
				continue
			}
			stage, sw := c.nodeLoc(int32(node))
			rep.PerStage[stage-1].Blame += cycles
			bySwitch[key{stage, sw}] += cycles
		}
		for k, v := range bySwitch {
			rep.Blame = append(rep.Blame, SwitchBlame{Stage: k.stage, Switch: k.sw, Cycles: v})
		}
		sortBlame(rep.Blame)
		if len(rep.Blame) > rep.topK {
			rep.Blame = rep.Blame[:rep.topK]
		}
		rep.Trees = c.trees.report(c.lay)
	}
	if len(c.srcs) > 0 {
		rep.Sources = make([]Flow, len(c.srcs))
		for i, f := range c.srcs {
			rep.Sources[i] = Flow{Count: f.count, Wait: f.wait, Block: f.block, Service: f.service}
		}
	}
	if len(c.dsts) > 0 {
		rep.Dests = make([]Flow, len(c.dsts))
		for i, f := range c.dsts {
			rep.Dests[i] = Flow{Count: f.count, Wait: f.wait, Block: f.block, Service: f.service}
		}
	}
	return rep
}

// settleQueued adds the still-queued packets' cycles through the last
// EndCycle to rep's stage ledgers and FaultParked, by the rule leave
// applies when a packet departs: each head has waited until it reached
// the head and been blocked since; the packets behind it have waited.
func (c *Collector) settleQueued(rep *Report) {
	for ring := range c.mirror {
		m := &c.mirror[ring]
		if m.N == 0 {
			continue
		}
		st := &rep.PerStage[c.lay.RingStage[ring]-1]
		h := c.heads[ring]
		st.Wait += h.since - c.recs[m.Peek()].entered
		st.Block += c.now - h.since
		rep.FaultParked += c.now - h.since - h.blocked
		for k := int32(1); k < m.N; k++ {
			i := m.Buf[(m.Head+k)&int32(len(m.Buf)-1)]
			st.Wait += c.now - c.recs[i].entered
		}
	}
}

func (ca classAgg) totals() ClassTotals {
	return ClassTotals{Count: ca.count, Wait: ca.wait, Block: ca.block, Service: ca.service}
}

// nodeLoc maps a blame-ledger node to its (1-based stage, switch).
func (c *Collector) nodeLoc(node int32) (stage, sw int) {
	if int(node) >= c.lay.Rings {
		term := int(node) - c.lay.Rings
		return c.lay.Stages, int(c.lay.TermSwitch[term])
	}
	return int(c.lay.RingStage[node]), int(c.lay.RingSwitch[node])
}

// Merge folds another report into r. Geometries must match. Cycles
// sum, so merging two shards of the same sweep yields per-cycle rates
// over the combined observation window; blame and tree lists re-rank
// and re-truncate to the receiver's top-K.
func (r *Report) Merge(o *Report) error {
	if o == nil {
		return nil
	}
	if r.Stages != o.Stages || r.Inputs != o.Inputs || r.Outputs != o.Outputs || r.Depth0 != o.Depth0 {
		return fmt.Errorf("anatomy: merging mismatched reports (%d/%d/%d vs %d/%d/%d stages/in/out)",
			r.Stages, r.Inputs, r.Outputs, o.Stages, o.Inputs, o.Outputs)
	}
	r.Cycles += o.Cycles
	r.Delivered.add(o.Delivered)
	r.Dropped.add(o.Dropped)
	r.Stranded.add(o.Stranded)
	r.FaultParked += o.FaultParked
	for i := range r.PerStage {
		a, b := &r.PerStage[i], &o.PerStage[i]
		a.Wait += b.Wait
		a.Block += b.Block
		a.Service += b.Service
		a.Blame += b.Blame
		if a.Dwell != nil && b.Dwell != nil {
			if err := a.Dwell.Merge(b.Dwell); err != nil {
				return err
			}
			a.DwellSummary = summarizeDwell(a.Dwell)
		}
	}
	type key struct{ stage, sw int }
	bySwitch := make(map[key]int64)
	for _, sb := range r.Blame {
		bySwitch[key{sb.Stage, sb.Switch}] += sb.Cycles
	}
	for _, sb := range o.Blame {
		bySwitch[key{sb.Stage, sb.Switch}] += sb.Cycles
	}
	r.Blame = r.Blame[:0]
	for k, v := range bySwitch {
		r.Blame = append(r.Blame, SwitchBlame{Stage: k.stage, Switch: k.sw, Cycles: v})
	}
	sortBlame(r.Blame)
	topK := r.topK
	if topK <= 0 {
		topK = 8
	}
	if len(r.Blame) > topK {
		r.Blame = r.Blame[:topK]
	}
	r.Trees = append(r.Trees, o.Trees...)
	sortTrees(r.Trees)
	if len(r.Trees) > topK {
		r.Trees = r.Trees[:topK]
	}
	for i := range r.Sources {
		if i < len(o.Sources) {
			r.Sources[i].add(o.Sources[i])
		}
	}
	for i := range r.Dests {
		if i < len(o.Dests) {
			r.Dests[i].add(o.Dests[i])
		}
	}
	if o.Requests != nil {
		if r.Requests == nil {
			cp := *o.Requests
			r.Requests = &cp
		} else {
			r.Requests.Completed += o.Requests.Completed
			r.Requests.ClientQueue += o.Requests.ClientQueue
			r.Requests.RetryWait += o.Requests.RetryWait
			r.Requests.Forward += o.Requests.Forward
			r.Requests.Service += o.Requests.Service
			r.Requests.Reply += o.Requests.Reply
			r.Requests.GiveUps += o.Requests.GiveUps
			r.Requests.GiveUpTime += o.Requests.GiveUpTime
		}
	}
	return nil
}

func sortBlame(b []SwitchBlame) {
	sort.Slice(b, func(i, j int) bool {
		if b[i].Cycles != b[j].Cycles {
			return b[i].Cycles > b[j].Cycles
		}
		if b[i].Stage != b[j].Stage {
			return b[i].Stage < b[j].Stage
		}
		return b[i].Switch < b[j].Switch
	})
}
