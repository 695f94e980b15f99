package anatomy

import (
	"reflect"
	"testing"

	"edn/internal/probe"
)

// chainLayout is a 2-stage toy fabric: rings 0,1 feed stage 1 (switch
// 0), rings 2,3 feed stage 2 (switch 0), terminals 0,1 behind switch 0.
func chainLayout() Layout {
	return Layout{
		Stages: 2, Inputs: 2, Outputs: 2, Rings: 4,
		RingStage:  []int32{1, 1, 2, 2},
		RingSwitch: []int32{0, 0, 0, 0},
		TermSwitch: []int32{0, 0},
	}
}

// TestCollectorAttribution walks one packet through a hand-built
// blocking scenario and checks every cycle lands in the right bin.
func TestCollectorAttribution(t *testing.T) {
	var samples []PacketSample
	c := New(Options{OnPacket: func(s PacketSample) { samples = append(samples, s) }})
	c.Bind(chainLayout())

	// Cycle 0: packet injected into ring 0 (stage 1).
	c.Inject(0, 0, 1, 0)
	c.EndCycle(0)
	// Cycle 1: head of ring 0, blocked by full ring 2 downstream.
	c.Block(0, 2, 1)
	c.EndCycle(1)
	// Cycle 2: advances into ring 2 (stage 2).
	c.Advance(0, 2, 2)
	c.EndCycle(2)
	// Cycle 3: delivered from ring 2.
	c.Deliver(2, 3)
	c.EndCycle(3)

	if len(samples) != 1 {
		t.Fatalf("want 1 closed packet, got %d", len(samples))
	}
	s := samples[0]
	// Life: injected at 0, delivered at 3 => latency 3 = 1 block (cycle
	// 1) + 2 service (the advance and the delivery). Cycle 0 is the
	// injection cycle itself — the buffered convention doesn't count it.
	want := PacketSample{Class: ClassDelivered, Src: 0, Dest: 1, Inject: 0, Closed: 3,
		Wait: 0, Block: 1, Service: 2}
	if s != want {
		t.Fatalf("sample %+v, want %+v", s, want)
	}

	rep := c.Report()
	if rep.Delivered.Count != 1 || rep.Delivered.Block != 1 || rep.Delivered.Service != 2 {
		t.Fatalf("report totals %+v", rep.Delivered)
	}
	// The blame ledger charges ring 2's owner (stage 2, switch 0) with
	// the one blocked ring-cycle it caused.
	if len(rep.Blame) != 1 || rep.Blame[0] != (SwitchBlame{Stage: 2, Switch: 0, Cycles: 1}) {
		t.Fatalf("blame %+v", rep.Blame)
	}
	// One single-edge congestion tree rooted at the non-blocked ring 2.
	if len(rep.Trees) != 1 {
		t.Fatalf("trees %+v", rep.Trees)
	}
	tr := rep.Trees[0]
	if tr.RootStage != 2 || tr.RootSwitch != 0 || tr.RootTerminal != -1 || tr.Depth != 1 || tr.BlockedCycles != 1 {
		t.Fatalf("tree %+v", tr)
	}
}

// TestCollectorWaitBehindHead pins the wait bin: a packet queued behind
// a blocked head accrues wait, not block.
func TestCollectorWaitBehindHead(t *testing.T) {
	var samples []PacketSample
	c := New(Options{OnPacket: func(s PacketSample) { samples = append(samples, s) }})
	c.Bind(chainLayout())

	c.Inject(0, 0, 0, 0) // head
	c.Inject(0, 1, 1, 0) // queued behind it in the same ring
	c.EndCycle(0)
	c.Block(0, 2, 1) // head blocked; follower waits
	c.EndCycle(1)
	c.Advance(0, 2, 2) // head advances; follower reaches the head
	c.EndCycle(2)
	c.Deliver(2, 3)  // head delivered
	c.Block(0, 2, 3) // follower is now the blocked head
	c.EndCycle(3)
	c.Advance(0, 3, 4) // follower advances
	c.EndCycle(4)
	c.Deliver(3, 5) // follower delivered
	c.EndCycle(5)

	if len(samples) != 2 {
		t.Fatalf("want 2 closed packets, got %d", len(samples))
	}
	head, follower := samples[0], samples[1]
	if head.Wait != 0 || head.Block != 1 || head.Service != 2 {
		t.Fatalf("head %+v", head)
	}
	// Follower: cycle 1 waiting behind the head and cycle 2 reaching
	// the head as it leaves, cycle 3 blocked as the new head, cycles 4
	// and 5 service.
	if follower.Wait != 2 || follower.Block != 1 || follower.Service != 2 {
		t.Fatalf("follower %+v", follower)
	}
	if got, want := follower.Wait+follower.Block+follower.Service, follower.Closed-follower.Inject; got != want {
		t.Fatalf("conservation: %d != %d", got, want)
	}
}

// TestReportMerge checks shard merges are lossless: totals sum, dwell
// summaries recompute from merged mass, blame re-ranks, and merging
// mismatched geometries fails loudly.
func TestReportMerge(t *testing.T) {
	mk := func(seedCycle int64) *Report {
		c := New(Options{TopK: 2})
		c.Bind(chainLayout())
		c.Inject(0, 0, 1, seedCycle)
		c.EndCycle(seedCycle)
		c.Block(0, 2, seedCycle+1)
		c.EndCycle(seedCycle + 1)
		c.Advance(0, 2, seedCycle+2)
		c.EndCycle(seedCycle + 2)
		c.Deliver(2, seedCycle+3)
		c.EndCycle(seedCycle + 3)
		return c.Report()
	}
	a, b := mk(0), mk(100)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Delivered.Count != 2 || a.Delivered.Block != 2 || a.Delivered.Service != 4 {
		t.Fatalf("merged totals %+v", a.Delivered)
	}
	if a.Cycles != 8 {
		t.Fatalf("merged cycles %d", a.Cycles)
	}
	if len(a.Blame) != 1 || a.Blame[0].Cycles != 2 {
		t.Fatalf("merged blame %+v", a.Blame)
	}
	if len(a.Trees) != 2 {
		t.Fatalf("merged trees %+v", a.Trees)
	}
	for _, st := range a.PerStage {
		if st.DwellSummary.N != st.Dwell.N() {
			t.Fatalf("stage %d dwell summary stale: %+v vs N=%d", st.Stage, st.DwellSummary, st.Dwell.N())
		}
	}

	other := New(Options{})
	other.Bind(Layout{Stages: 3, Inputs: 4, Outputs: 4, Rings: 0})
	if err := a.Merge(other.Report()); err == nil {
		t.Fatalf("merged mismatched geometries without error")
	}
}

// TestTreeDetectorChain feeds a three-deep blocked-by chain and checks
// the detector finds one tree with the right root, depth and spread.
func TestTreeDetectorChain(t *testing.T) {
	lay := Layout{
		Stages: 3, Inputs: 2, Outputs: 2, Rings: 6,
		RingStage:  []int32{1, 1, 2, 2, 3, 3},
		RingSwitch: []int32{0, 0, 0, 0, 0, 0},
		TermSwitch: []int32{0, 0},
	}
	var td treeDetector
	td.reset(4, lay.Rings+lay.Outputs)
	// Ring 0 blocked by ring 2, ring 2 blocked by ring 4, ring 4 blocked
	// by terminal 0 (node Rings+0 = 6): one tree rooted at the terminal,
	// chain depth 3, spread 3.
	blockedBy := []int32{2, bbNone, 4, bbNone, 6, bbNone}
	for now := int64(0); now < 5; now++ {
		td.observe(now, []int32{0, 2, 4}, blockedBy, lay)
	}
	trees := td.report(lay)
	if len(trees) != 1 {
		t.Fatalf("trees %+v", trees)
	}
	tr := trees[0]
	if tr.RootTerminal != 0 || tr.RootStage != 3 || tr.Depth != 3 || tr.Spread != 3 {
		t.Fatalf("tree %+v", tr)
	}
	if tr.FirstCycle != 0 || tr.LastCycle != 4 || tr.BlockedCycles != 15 {
		t.Fatalf("tree lifetime %+v", tr)
	}
}

// TestTreeOrderIsDeterministic pins the tree order as a function of the
// set of trees alone: two trees rooted in one switch that tie on cost,
// first cycle and root come out in the same order on every run, in
// whichever order their edges arrived.
func TestTreeOrderIsDeterministic(t *testing.T) {
	lay := Layout{
		Stages: 3, Inputs: 2, Outputs: 2, Rings: 6,
		RingStage:  []int32{1, 1, 2, 2, 3, 3},
		RingSwitch: []int32{0, 0, 0, 0, 0, 0},
		TermSwitch: []int32{0, 0},
	}
	// Rings 0→2→4 (depth 2) and rings 1, 3→5 (depth 1): both trees are
	// rooted at stage 3 switch 0 and cost 2 ring-cycles.
	edges := [][2]int{{0, 2}, {2, 4}, {1, 5}, {3, 5}}
	run := func(k int) []Tree {
		c := New(Options{})
		c.Bind(lay)
		for ring := 0; ring < 4; ring++ {
			c.Inject(ring, ring%2, 0, 0)
		}
		c.EndCycle(0)
		for j := range edges {
			e := edges[j]
			if k%2 == 1 {
				e = edges[len(edges)-1-j]
			}
			c.Block(e[0], e[1], 1)
		}
		c.EndCycle(1)
		c.EndCycle(2)
		return c.Report().Trees
	}
	want := []Tree{
		{RootStage: 3, RootTerminal: -1, Depth: 2, Spread: 2, FirstCycle: 1, LastCycle: 1, BlockedCycles: 2},
		{RootStage: 3, RootTerminal: -1, Depth: 1, Spread: 2, FirstCycle: 1, LastCycle: 1, BlockedCycles: 2},
	}
	for k := 0; k < 200; k++ {
		if got := run(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: trees %+v, want %+v", k, got, want)
		}
	}
}

// TestSplitHops decomposes a compressed probe trace and checks the
// segments telescope to the trace latency.
func TestSplitHops(t *testing.T) {
	hops := []probe.Hop{
		{Cycle: 10, Stage: 0, Event: probe.EvInject},
		{Cycle: 14, Stage: 1, Event: probe.EvBlock},    // waited 11..13, blocked from 14
		{Cycle: 16, Stage: 1, Event: probe.EvTraverse}, // blocked 14..15, served 16
		{Cycle: 17, Stage: 2, Event: probe.EvTraverse}, // straight through
		{Cycle: 20, Stage: 3, Event: probe.EvDeliver},  // waited 18..19, served 20
	}
	got := SplitHops(hops)
	want := []TraceSplit{
		{Stage: 1, Wait: 3, Block: 2, Service: 1},
		{Stage: 2, Wait: 0, Block: 0, Service: 1},
		{Stage: 3, Wait: 2, Block: 0, Service: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splits %+v, want %+v", got, want)
	}
	var total int64
	for _, s := range got {
		total += s.Wait + s.Block + s.Service
	}
	if total != 10 { // delivered at 20, injected at 10
		t.Fatalf("splits sum to %d, want 10", total)
	}

	if SplitHops(nil) != nil {
		t.Fatalf("empty hops should split to nil")
	}
	if SplitHops([]probe.Hop{{Cycle: 1, Event: probe.EvIssue}}) != nil {
		t.Fatalf("request traces should split to nil")
	}
}
