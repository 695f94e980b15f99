package queuesim_test

// The depth-0 parking pins run both fabrics through their exported
// constructors, so they live in the external test package beside the
// bridge pins.

import (
	"fmt"
	"math"
	"testing"

	"edn/internal/anatomy"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/queuesim"
)

// parkFixture is one depth-0 network with a fully dead bucket past
// stage 1 on the path of every packet it is offered.
type parkFixture struct {
	name  string
	build func(t *testing.T, opts queuesim.Options) *queuesim.Network
	dest  []int // the one injection vector
	// parked packets of it stay pinned behind the dead bucket, at stage
	// parkedAt; drops is the per-stage drop count the same injection
	// leaves under Drop, where a packet dies at the stage that refused
	// it.
	parked   int64
	parkedAt int
	drops    []int64
}

// deadEDNBucket builds EDN(a,b,c,l) with every wire of bucket 0 of
// stage-2 switch 0 dead: input 0's path to output 0 crosses it. Every
// wire of bucket 1 of stage-1 switch 1 is dead too, off that path, so
// the walk must reach past the shallowest stage with a dead bucket.
func deadEDNBucket(a, b, c, l int) func(t *testing.T, opts queuesim.Options) *queuesim.Network {
	return func(t *testing.T, opts queuesim.Options) *queuesim.Network {
		cfg := bridgeCfg(t, [4]int{a, b, c, l})
		var set faults.Set
		for w := range c {
			set.Ports = append(set.Ports,
				faults.PortID{Stage: 2, Switch: 0, Bucket: 0, Wire: w},
				faults.PortID{Stage: 1, Switch: 1, Bucket: 1, Wire: w})
		}
		opts.Faults = faults.MustCompile(cfg, set)
		n, err := queuesim.New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// idle is an injection vector with no request.
func idle(inputs int) []int {
	dest := make([]int, inputs)
	for i := range dest {
		dest[i] = queuesim.NoRequest
	}
	return dest
}

// oneRequest is an injection vector in which input 0 requests output 0
// and every other input is idle.
func oneRequest(inputs int) []int {
	dest := idle(inputs)
	dest[0] = 0
	return dest
}

func parkFixtures() []parkFixture {
	return []parkFixture{
		{
			name:  "EDN(4,2,2,2)",
			build: deadEDNBucket(4, 2, 2, 2), dest: oneRequest(8),
			parked: 1, parkedAt: 2, drops: []int64{0, 1, 0},
		},
		{
			name:  "EDN(2,2,1,3)",
			build: deadEDNBucket(2, 2, 1, 3), dest: oneRequest(8),
			parked: 1, parkedAt: 2, drops: []int64{0, 1, 0, 0},
		},
		{
			// Both sub-wires of bucket 0 of stage-3 switch 0 dead, every
			// input sending to output 0: 4 of the 8 lose at stage 2 and
			// the dead bucket stops the other 4, but all 8 paths cross
			// it. Bucket 1 of stage-1 switch 0, off every path, is dead
			// too.
			name: "dilated(2,2,3)",
			build: func(t *testing.T, opts queuesim.Options) *queuesim.Network {
				dcfg, err := dilated.New(2, 2, 3)
				if err != nil {
					t.Fatal(err)
				}
				m, err := dilatedsim.Compile(dcfg, faults.Set{Ports: []faults.PortID{
					{Stage: 3, Switch: 0, Bucket: 0, Wire: 0},
					{Stage: 3, Switch: 0, Bucket: 0, Wire: 1},
					{Stage: 1, Switch: 0, Bucket: 1, Wire: 0},
					{Stage: 1, Switch: 0, Bucket: 1, Wire: 1},
				}})
				if err != nil {
					t.Fatal(err)
				}
				opts.Faults = m
				n, err := dilatedsim.New(dcfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				return n.Network
			},
			dest:   make([]int, 8),
			parked: 8, parkedAt: 3, drops: []int64{0, 4, 4, 0},
		},
	}
}

// heatSum is the total of a heat metric at a stage over the one bin the
// tests record into.
func heatSum(h *probe.Heat, metric string, stage int) int64 {
	ts := h.Series[h.Metric(metric)][stage-1]
	return int64(math.Round(ts.Mean(0) * float64(ts.N(0))))
}

// TestDepth0ParksOnPinnedPath: at depth 0 under Backpressure, a packet
// whose switch path crosses a bucket with no live wire is parked every
// cycle and charged to that bucket's stage, on both fabrics, whatever
// stage it lost at first: in the cycle stats, the probe's heat and
// hops and the anatomy's fault-park ledger alike. The path is pinned by
// the (input, destination) pair on an EDN too, since a bucket's wires
// land on one downstream switch (TestBucketWiresShareADownstreamSwitch).
func TestDepth0ParksOnPinnedPath(t *testing.T) {
	const cycles = 10
	for _, fx := range parkFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			n := fx.build(t, queuesim.Options{Depth: 0, Policy: queuesim.Backpressure})
			p := probe.New(probe.Options{SampleEvery: 1, Bins: 1, BinCycles: cycles})
			a := anatomy.New(anatomy.Options{})
			n.SetProbe(p)
			n.SetAnatomy(a)
			none := idle(len(fx.dest))
			for c := range cycles {
				dest := none
				if c == 0 {
					dest = fx.dest
				}
				cs, err := n.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				if int64(cs.ParkedOnDead) != fx.parked || n.Queued() != fx.parked || cs.Delivered != 0 {
					t.Fatalf("cycle %d: %+v with %d queued, want all %d packets parked", c, cs, n.Queued(), fx.parked)
				}
			}
			total := fx.parked * cycles // parked packet-cycles

			probed := p.Report()
			for s := 1; s <= n.Stages(); s++ {
				want := int64(0)
				if s == fx.parkedAt {
					want = total
				}
				if got := heatSum(probed.Heat, "parked", s); got != want {
					t.Errorf("stage %d: parked heat %d, want %d", s, got, want)
				}
				if got := heatSum(probed.Heat, "hol_blocked", s); got != 0 {
					t.Errorf("stage %d: hol_blocked heat %d, want 0 (every blocked packet is parked)", s, got)
				}
			}
			if int64(len(probed.Traces)) != fx.parked {
				t.Fatalf("%d traces, want one per parked packet", len(probed.Traces))
			}
			for _, tr := range probed.Traces {
				var last probe.Hop
				for _, h := range tr.Hops {
					if h.Event == probe.EvBlock || h.Event == probe.EvPark {
						last = h
					}
				}
				if last.Event != probe.EvPark || last.Stage != fx.parkedAt {
					t.Errorf("trace %d: last block-family hop %+v, want park at stage %d", tr.ID, last, fx.parkedAt)
				}
			}

			rep := a.Report()
			if rep.FaultParked != total {
				t.Errorf("anatomy FaultParked %d, want %d", rep.FaultParked, total)
			}
			if got := rep.PerStage[fx.parkedAt-1].Block; got != total {
				t.Errorf("anatomy stage-%d block %d, want %d", fx.parkedAt, got, total)
			}
		})
	}
}

// TestDepth0ParkPrecedence: a packet pinned by several dead components
// is charged to the first of its input wire, its destination terminal
// and its path's buckets from stage 1 outward. That order keeps every
// classification the EDN made before its walk reached past stage 1.
func TestDepth0ParkPrecedence(t *testing.T) {
	cfg := bridgeCfg(t, [4]int{4, 2, 2, 2})
	bucket := []faults.PortID{{Stage: 2, Switch: 0, Bucket: 0, Wire: 0}, {Stage: 2, Switch: 0, Bucket: 0, Wire: 1}}
	terminal := faults.PortID{Stage: 3, Switch: 0, Bucket: 0} // output 0
	input := faults.WireID{Boundary: 0, Wire: 0}
	n, err := queuesim.New(cfg, queuesim.Options{Depth: 0, Policy: queuesim.Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	p := probe.New(probe.Options{SampleEvery: 1})
	n.SetProbe(p)
	dest := oneRequest(cfg.Inputs())
	for k, step := range []struct {
		set faults.Set
		at  int
	}{
		{faults.Set{Ports: bucket}, 2},
		{faults.Set{Ports: append(bucket, terminal)}, 3},
		{faults.Set{Ports: append(bucket, terminal), Wires: []faults.WireID{input}}, 1},
	} {
		if err := n.UpdateFaults(faults.MustCompile(cfg, step.set)); err != nil {
			t.Fatal(err)
		}
		cs, err := n.Cycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		dest = idle(cfg.Inputs())
		hops := p.Report().Traces[0].Hops
		if last := hops[len(hops)-1]; cs.ParkedOnDead != 1 || last.Event != probe.EvPark || last.Stage != step.at {
			t.Fatalf("step %d: ParkedOnDead %d, last hop %+v, want one park at stage %d", k, cs.ParkedOnDead, last, step.at)
		}
	}
}

// TestDepth0DropsWhereRefused: under Drop the same injections die at
// the stage that refused them, as they always have — parking is a
// Backpressure classification and moves no drop.
func TestDepth0DropsWhereRefused(t *testing.T) {
	for _, fx := range parkFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			n := fx.build(t, queuesim.Options{Depth: 0, Policy: queuesim.Drop})
			cs, err := n.Cycle(fx.dest)
			if err != nil {
				t.Fatal(err)
			}
			if cs.ParkedOnDead != 0 || n.Queued() != 0 {
				t.Fatalf("Drop parked %d and kept %d packets", cs.ParkedOnDead, n.Queued())
			}
			if got := fmt.Sprint(n.DroppedPerStage()); got != fmt.Sprint(fx.drops) {
				t.Fatalf("drops per stage %s, want %v", got, fx.drops)
			}
		})
	}
}

// TestBucketWiresShareADownstreamSwitch pins the premise of the depth-0
// parking walk on every fabric the engine runs: all wires of a bucket
// cross their stage's table onto one switch of the next stage, so a
// packet's (input, destination) pair fixes its switch path. It holds for
// the EDN by Equation 1 (the interstage permutation fixes the wire
// bits) and for the dilated delta by construction.
func TestBucketWiresShareADownstreamSwitch(t *testing.T) {
	var fabrics []*queuesim.Fabric
	for _, g := range bridgeGeometries {
		f, err := queuesim.EDNFabric(bridgeCfg(t, g))
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, f)
	}
	for _, g := range []struct{ b, d, l int }{{2, 1, 3}, {4, 1, 2}, {2, 2, 3}, {4, 2, 2}, {2, 4, 3}, {4, 4, 2}} {
		dcfg, err := dilated.New(g.b, g.d, g.l)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dilatedsim.Fabric(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, f)
	}
	for _, f := range fabrics {
		for s, st := range f.Stages[:len(f.Stages)-1] {
			width := f.Stages[s+1].Width
			downSwitch := func(o int) int {
				if st.Table != nil {
					o = int(st.Table[o])
				}
				return o / width
			}
			for b := range st.Switches * st.Buckets {
				first := downSwitch(b * st.Wires)
				for k := 1; k < st.Wires; k++ {
					if sw := downSwitch(b*st.Wires + k); sw != first {
						t.Fatalf("%v stage %d bucket %d: wire %d lands on switch %d, wire 0 on %d", f.Label, s+1, b, k, sw, first)
					}
				}
			}
		}
	}
}
