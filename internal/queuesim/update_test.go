package queuesim

import (
	"fmt"
	"testing"

	"edn/internal/faults"
	"edn/internal/ringbuf"
	"edn/internal/topology"
	"edn/internal/xrand"
)

func updCfg(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// updEpochMasks mirrors the core test's timeline: churn, a blast epoch
// and a mid-life full repair.
func updEpochMasks(t testing.TB, cfg topology.Config, mode faults.Mode, seed uint64, epochs int) []*faults.Masks {
	t.Helper()
	rng := xrand.New(seed)
	masks := make([]*faults.Masks, epochs)
	for e := range masks {
		var set faults.Set
		switch {
		case e == epochs/2:
			set = faults.Set{}
		default:
			set = faults.Bernoulli(cfg, mode, 0.05+0.1*rng.Float64(), rng)
		}
		m, err := faults.Compile(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		masks[e] = m
	}
	return masks
}

func checkConservation(t testing.TB, net *Network, where string) {
	t.Helper()
	tot := net.Totals()
	if got := tot.Refused + tot.Delivered + tot.Dropped + tot.Stranded + net.Queued(); got != tot.Injected {
		t.Fatalf("%s: conservation violated: injected %d != refused+delivered+dropped+stranded+queued %d (%+v queued=%d)",
			where, tot.Injected, got, tot, net.Queued())
	}
	checkCandidates(t, net, where)
}

// checkCandidates pins what the pipelined advance walks: per boundary,
// the rings ringbuf.Next finds in the occupancy bitmap with the dead
// bitmap masked out are exactly the rings that hold packets on wires the
// current masks leave live (re-derived here from the mask rows), and the
// per-boundary packet counts match the rings and sum to Queued().
func checkCandidates(t testing.TB, net *Network, where string) {
	t.Helper()
	if net.opts.Depth == 0 {
		return
	}
	dead := make([]bool, net.fifo.Count())
	for w, ok := range net.liveIn {
		dead[w] = !ok
	}
	for s, row := range net.liveRows[:net.stages-1] {
		for o, ok := range row {
			if down := o; !ok {
				if tab := net.st[s].Table; tab != nil {
					down = int(tab[o])
				}
				dead[net.base[s+1]+down] = true
			}
		}
	}
	var sum int64
	for b, lo := range net.base {
		hi := lo + net.st[b].Switches*net.st[b].Width
		var want, got []int
		var held int64
		for i := lo; i < hi; i++ {
			held += int64(net.fifo.Len(i))
			if net.fifo.Len(i) > 0 && !dead[i] {
				want = append(want, i)
			}
		}
		full := net.fifo.NonEmpty()
		for f := ringbuf.Next(full, net.dead, lo, hi); f < hi; f = ringbuf.Next(full, net.dead, f+1, hi) {
			got = append(got, f)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: boundary %d candidates %v, want the live occupied rings %v", where, b, got, want)
		}
		if held != net.occ[b] {
			t.Fatalf("%s: boundary %d counts %d packets, its rings hold %d", where, b, net.occ[b], held)
		}
		sum += net.occ[b]
	}
	if sum != net.Queued() {
		t.Fatalf("%s: boundary counts sum to %d, Queued() = %d", where, sum, net.Queued())
	}
}

// TestUpdateFaultsMatchesRebuildAtDrainedBoundaries is the queueing
// half of the incremental-mask property: with the network drained at
// every epoch boundary (Drop policy: every packet either advances or
// dies each cycle, so draining always terminates), a network receiving
// UpdateFaults per epoch must match a freshly built NewNetworkWithFaults
// cycle for cycle — injections, refusals, deliveries, drops, queue
// depth and the epoch's latency distribution — across geometries,
// depths and the fused/arbitrated paths.
func TestUpdateFaultsMatchesRebuildAtDrainedBoundaries(t *testing.T) {
	geometries := []struct{ a, b, c, l int }{
		{4, 4, 2, 2}, {8, 2, 4, 2}, {4, 4, 1, 2},
	}
	const epochs, cyclesPerEpoch = 8, 15
	for _, g := range geometries {
		cfg := updCfg(t, g.a, g.b, g.c, g.l)
		masks := updEpochMasks(t, cfg, faults.MixedFaults, 0xbeef+uint64(g.a*g.c), epochs)
		for _, depth := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/depth%d", cfg, depth), func(t *testing.T) {
				inc, err := New(cfg, Options{Depth: depth, Policy: Drop})
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(55)
				dest := make([]int, cfg.Inputs())
				for e, m := range masks {
					if _, err := inc.Drain(1000); err != nil {
						t.Fatalf("epoch %d: %v", e, err)
					}
					checkConservation(t, inc, fmt.Sprintf("epoch %d drained", e))
					if err := inc.UpdateFaults(m); err != nil {
						t.Fatal(err)
					}
					checkConservation(t, inc, fmt.Sprintf("epoch %d swapped", e))
					inc.ResetLatency()
					ref, err := New(cfg, Options{Depth: depth, Policy: Drop, Faults: m})
					if err != nil {
						t.Fatal(err)
					}
					for c := 0; c < cyclesPerEpoch; c++ {
						for i := range dest {
							if rng.Bool(0.85) {
								dest[i] = rng.Intn(cfg.Outputs())
							} else {
								dest[i] = NoRequest
							}
						}
						ics, err := inc.Cycle(dest)
						if err != nil {
							t.Fatal(err)
						}
						rcs, err := ref.Cycle(dest)
						if err != nil {
							t.Fatal(err)
						}
						if ics != rcs {
							t.Fatalf("epoch %d cycle %d: %+v vs rebuilt %+v", e, c, ics, rcs)
						}
						if inc.Queued() != ref.Queued() {
							t.Fatalf("epoch %d cycle %d: queued %d vs rebuilt %d", e, c, inc.Queued(), ref.Queued())
						}
						checkConservation(t, inc, fmt.Sprintf("epoch %d cycle %d", e, c))
					}
					ih, rh := inc.Latency(), ref.Latency()
					if ih.N() != rh.N() || ih.Quantile(0.5) != rh.Quantile(0.5) || ih.Quantile(0.99) != rh.Quantile(0.99) {
						t.Fatalf("epoch %d: latency diverged: n=%d/%d p50=%g/%g p99=%g/%g",
							e, ih.N(), rh.N(), ih.Quantile(0.5), rh.Quantile(0.5), ih.Quantile(0.99), rh.Quantile(0.99))
					}
				}
			})
		}
	}
}

// TestUpdateFaultsMatchesConstructionFromEmpty covers Backpressure and
// the unbuffered corner, where queue state outlives epochs by design
// and rebuild-per-epoch is only well-defined from the empty state: a
// virgin network receiving the mask via UpdateFaults must match one
// constructed with it directly, cycle for cycle.
func TestUpdateFaultsMatchesConstructionFromEmpty(t *testing.T) {
	cfg := updCfg(t, 8, 4, 2, 2)
	masks := updEpochMasks(t, cfg, faults.MixedFaults, 99, 6)
	configs := []struct {
		name   string
		depth  int
		policy Policy
	}{
		{"depth0-backpressure", 0, Backpressure},
		{"depth0-drop", 0, Drop},
		{"depth2-backpressure", 2, Backpressure},
		{"unbounded-backpressure", Unbounded, Backpressure},
	}
	for _, qc := range configs {
		t.Run(qc.name, func(t *testing.T) {
			for e, m := range masks {
				inc, err := New(cfg, Options{Depth: qc.depth, Policy: qc.policy})
				if err != nil {
					t.Fatal(err)
				}
				if err := inc.UpdateFaults(m); err != nil {
					t.Fatal(err)
				}
				checkConservation(t, inc, fmt.Sprintf("mask %d swapped", e))
				ref, err := New(cfg, Options{Depth: qc.depth, Policy: qc.policy, Faults: m})
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(uint64(e)*31 + 7)
				dest := make([]int, cfg.Inputs())
				for c := 0; c < 25; c++ {
					for i := range dest {
						dest[i] = rng.Intn(cfg.Outputs())
					}
					ics, err := inc.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					rcs, err := ref.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					if ics != rcs {
						t.Fatalf("mask %d cycle %d: %+v vs constructed %+v", e, c, ics, rcs)
					}
					if inc.Queued() != ref.Queued() {
						t.Fatalf("mask %d cycle %d: queued %d vs %d", e, c, inc.Queued(), ref.Queued())
					}
					checkConservation(t, inc, fmt.Sprintf("mask %d cycle %d", e, c))
				}
			}
		})
	}
}

// TestUpdateFaultsStrandsUnderDrop pins the stranded accounting: kill
// every wire feeding the loaded network under Drop and the queued
// packets move to Totals.Stranded, conservation intact.
func TestUpdateFaultsStrandsUnderDrop(t *testing.T) {
	cfg := updCfg(t, 4, 4, 2, 2)
	net, err := New(cfg, Options{Depth: 4, Policy: Drop})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	dest := make([]int, cfg.Inputs())
	for c := 0; c < 30; c++ {
		for i := range dest {
			dest[i] = rng.Intn(cfg.Outputs())
		}
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	queued := net.Queued()
	if queued == 0 {
		t.Fatal("network failed to accumulate queued packets")
	}
	// Kill every stage-1 switch: every input ring's wire dies.
	var set faults.Set
	for sw := 0; sw < cfg.SwitchesInStage(1); sw++ {
		set.Switches = append(set.Switches, faults.SwitchID{Stage: 1, Switch: sw})
	}
	m, err := faults.Compile(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(m); err != nil {
		t.Fatal(err)
	}
	tot := net.Totals()
	if tot.Stranded == 0 {
		t.Error("no packets stranded by killing every stage-1 switch")
	}
	if net.Queued() >= queued {
		t.Errorf("queued did not shrink: %d -> %d", queued, net.Queued())
	}
	checkConservation(t, net, "after stranding")
}

// TestParkedOnDeadAndRepair pins the Backpressure corner end to end: a
// packet aimed at a dead output terminal parks at the crossbar head and
// is counted in ParkedOnDead every cycle — the conservation check can
// assert on the parked population directly — and a repairing update
// releases it for delivery, nothing lost.
func TestParkedOnDeadAndRepair(t *testing.T) {
	cfg := updCfg(t, 4, 4, 2, 2)
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			net, err := New(cfg, Options{Depth: depth, Policy: Backpressure})
			if err != nil {
				t.Fatal(err)
			}
			const deadTerminal = 5
			m, err := faults.Compile(cfg, faults.Set{Ports: []faults.PortID{
				{Stage: cfg.L + 1, Switch: deadTerminal / cfg.C, Bucket: deadTerminal % cfg.C},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.UpdateFaults(m); err != nil {
				t.Fatal(err)
			}
			// Input 0 sends one packet to the dead terminal; everyone else
			// idles.
			dest := make([]int, cfg.Inputs())
			for i := range dest {
				dest[i] = NoRequest
			}
			dest[0] = deadTerminal
			if _, err := net.Cycle(dest); err != nil {
				t.Fatal(err)
			}
			dest[0] = NoRequest
			var lastParked int
			for c := 0; c < 3*cfg.Stages(); c++ {
				cs, err := net.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				lastParked = cs.ParkedOnDead
			}
			if lastParked != 1 {
				t.Fatalf("steady parked-on-dead = %d, want 1", lastParked)
			}
			if net.Queued() != 1 || net.Totals().Delivered != 0 {
				t.Fatalf("parked packet leaked: queued=%d totals=%+v", net.Queued(), net.Totals())
			}
			checkConservation(t, net, "while parked")
			// Repair: the terminal comes back, the packet delivers, the
			// parked census returns to zero.
			empty, err := faults.Compile(cfg, faults.Set{})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.UpdateFaults(empty); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 3*cfg.Stages() && net.Queued() > 0; c++ {
				cs, err := net.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				if cs.ParkedOnDead != 0 {
					t.Fatalf("parked after repair: %+v", cs)
				}
			}
			if tot := net.Totals(); tot.Delivered != 1 || net.Queued() != 0 {
				t.Fatalf("repair did not release the packet: %+v queued=%d", tot, net.Queued())
			}
		})
	}
}

// TestStrandedRingParksAndRepairs pins the dead-wire stranding under
// Backpressure: packets queued on a wire that dies under them are
// skipped by arbitration, counted parked every cycle, and resume after
// the repair with their injection timestamps intact (their measured
// latency includes the outage).
func TestStrandedRingParksAndRepairs(t *testing.T) {
	cfg := updCfg(t, 4, 4, 2, 2)
	net, err := New(cfg, Options{Depth: 4, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	// Load the network, then sever every other network input wire: the
	// severed boundary-0 rings hold their packets through the outage,
	// beside live rings of the same switches that keep draining.
	rng := xrand.New(9)
	dest := make([]int, cfg.Inputs())
	for c := 0; c < 5; c++ {
		for i := range dest {
			dest[i] = rng.Intn(cfg.Outputs())
		}
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	var set faults.Set
	for w := 0; w < cfg.Inputs(); w += 2 {
		set.Wires = append(set.Wires, faults.WireID{Boundary: 0, Wire: w})
	}
	m, err := faults.Compile(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(m); err != nil {
		t.Fatal(err)
	}
	if net.Totals().Stranded != 0 {
		t.Fatalf("Backpressure stranded packets were dropped: %+v", net.Totals())
	}
	held := int64(0)
	for _, w := range set.Wires {
		held += int64(net.fifo.Len(w.Wire))
	}
	// Drain everything downstream of the severed inputs; the parked
	// packets in the input rings remain.
	for i := range dest {
		dest[i] = NoRequest
	}
	for c := 0; c < 20; c++ {
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	parked := net.Queued()
	if parked == 0 || parked != held {
		t.Fatalf("%d packets left after the drain, want the %d parked in the severed input rings", parked, held)
	}
	cs, err := net.Cycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if int64(cs.ParkedOnDead) != parked {
		t.Fatalf("ParkedOnDead = %d, want the %d parked packets", cs.ParkedOnDead, parked)
	}
	checkConservation(t, net, "during outage")
	// Repair and run: every parked packet must deliver.
	empty, err := faults.Compile(cfg, faults.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(1000); err != nil {
		t.Fatal(err)
	}
	tot := net.Totals()
	if tot.Delivered != tot.Injected-tot.Refused {
		t.Fatalf("packets lost across the outage: %+v", tot)
	}
}

// TestParkedOnDeadStageOneBucketUnbuffered pins the unbuffered corner
// the buffered engine classifies via liveCap: a packet whose stage-1
// bucket has no live wire left is pinned (the switch is fixed by its
// input, the bucket by its destination) and must count as parked every
// cycle, then deliver after the repair.
func TestParkedOnDeadStageOneBucketUnbuffered(t *testing.T) {
	cfg := updCfg(t, 4, 4, 2, 2)
	net, err := New(cfg, Options{Depth: 0, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	// Kill both wires of bucket 0 of stage-1 switch 0: input 0's route
	// toward any destination with first digit 0 is severed at stage 1.
	m, err := faults.Compile(cfg, faults.Set{Ports: []faults.PortID{
		{Stage: 1, Switch: 0, Bucket: 0, Wire: 0},
		{Stage: 1, Switch: 0, Bucket: 0, Wire: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(m); err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	dest[0] = 0 // first routing digit 0 -> the dead bucket
	if _, err := net.Cycle(dest); err != nil {
		t.Fatal(err)
	}
	dest[0] = NoRequest
	for c := 0; c < 10; c++ {
		cs, err := net.Cycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		if cs.ParkedOnDead != 1 {
			t.Fatalf("cycle %d: ParkedOnDead = %d, want 1 (pinned resubmission)", c, cs.ParkedOnDead)
		}
		if cs.Delivered != 0 {
			t.Fatalf("cycle %d: packet crossed a fully dead bucket", c)
		}
	}
	empty, err := faults.Compile(cfg, faults.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(100); err != nil {
		t.Fatal(err)
	}
	if tot := net.Totals(); tot.Delivered != 1 {
		t.Fatalf("repair did not release the pinned packet: %+v", tot)
	}
}

// TestUpdateFaultsZeroAllocQueue pins the epoch hot path for the
// pipelined engine: swapping precompiled masks and advancing allocates
// nothing, for both policies.
func TestUpdateFaultsZeroAllocQueue(t *testing.T) {
	cfg := updCfg(t, 16, 4, 4, 2)
	m1 := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.WireFaults, 0.1, xrand.New(3)))
	m2 := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.WireFaults, 0.2, xrand.New(4)))
	empty := faults.MustCompile(cfg, faults.Set{})
	masks := []*faults.Masks{m1, m2, empty}
	for _, policy := range []Policy{Drop, Backpressure} {
		t.Run(policy.String(), func(t *testing.T) {
			net, err := New(cfg, Options{Depth: 4, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(5)
			dest := make([]int, cfg.Inputs())
			gen := func() {
				for i := range dest {
					dest[i] = rng.Intn(cfg.Outputs())
				}
			}
			for c := 0; c < 50; c++ { // reach ring steady state first
				gen()
				if _, err := net.Cycle(dest); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				if err := net.UpdateFaults(masks[i%len(masks)]); err != nil {
					t.Fatal(err)
				}
				gen()
				if _, err := net.Cycle(dest); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("mask swap + cycle allocated %.1f times per epoch", allocs)
			}
		})
	}
}

// TestUpdateFaultsConfigMismatchQueue pins the error path.
func TestUpdateFaultsConfigMismatchQueue(t *testing.T) {
	cfg := updCfg(t, 4, 4, 2, 2)
	other := updCfg(t, 8, 2, 4, 2)
	for _, depth := range []int{0, 2} {
		net, err := New(cfg, Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		wrong := faults.MustCompile(other, faults.Bernoulli(other, faults.WireFaults, 0.2, xrand.New(1)))
		if err := net.UpdateFaults(wrong); err == nil {
			t.Errorf("depth %d: masks for another config should be refused", depth)
		}
	}
}
