package dilatedsim

import (
	"fmt"
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func dilatedCfg(t testing.TB, b, d, l int) dilated.Config {
	t.Helper()
	cfg, err := dilated.New(b, d, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// subWire is sub-wire (boundary bd, group g, wire w) of cfg.
func subWire(cfg dilated.Config, bd, g, w int) faults.PortID {
	return faults.PortID{Stage: bd, Switch: g / cfg.B, Bucket: g % cfg.B, Wire: w}
}

// mustCompile is Compile for sets valid by construction.
func mustCompile(t testing.TB, cfg dilated.Config, set faults.Set) *Masks {
	t.Helper()
	m, err := Compile(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func histogramsEqual(t *testing.T, got, want *stats.Histogram) {
	t.Helper()
	if got.N() != want.N() || got.Sum() != want.Sum() || got.Max() != want.Max() ||
		got.Min() != want.Min() || got.Overflow() != want.Overflow() {
		t.Fatalf("histogram summary mismatch: N %d/%d sum %g/%g max %g/%g",
			got.N(), want.N(), got.Sum(), want.Sum(), got.Max(), want.Max())
	}
	for k := 0; k < got.Buckets(); k++ {
		if got.Count(k) != want.Count(k) {
			t.Fatalf("histogram bucket %d: %d vs %d", k, got.Count(k), want.Count(k))
		}
	}
}

// TestDilationOneMatchesQueuesim pins the structural claim the package
// doc makes: a 1-dilated delta IS the plain delta network EDN(b,b,1,l),
// so the dilated engine must reproduce queuesim bit-for-bit at d=1 —
// same per-cycle stats, same lifetime totals, same latency histogram —
// across geometries, depths (the unbuffered corner included), policies
// and arbiter families, under identical replayed traffic.
func TestDilationOneMatchesQueuesim(t *testing.T) {
	geometries := []struct{ b, l int }{
		{2, 1},
		{2, 3},
		{4, 2},
	}
	depths := []int{0, 1, 3, Unbounded}
	policies := []Policy{Drop, Backpressure}
	factories := []struct {
		name    string
		factory func() switchfab.Arbiter
	}{
		{"priority", nil},
		{"roundrobin", func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }},
	}
	const cycles = 300
	for _, g := range geometries {
		dcfg := dilatedCfg(t, g.b, 1, g.l)
		ecfg, err := topology.NewDelta(g.b, g.b, g.l)
		if err != nil {
			t.Fatal(err)
		}
		if ecfg.Inputs() != dcfg.Ports() || ecfg.Outputs() != dcfg.Ports() {
			t.Fatalf("skeleton mismatch: %v vs %v", ecfg, dcfg)
		}
		for _, depth := range depths {
			for _, policy := range policies {
				for _, fc := range factories {
					name := fmt.Sprintf("b%d-l%d/depth%d/%v/%s", g.b, g.l, depth, policy, fc.name)
					t.Run(name, func(t *testing.T) {
						dn, err := New(dcfg, Options{Depth: depth, Policy: policy, Factory: fc.factory})
						if err != nil {
							t.Fatal(err)
						}
						qn, err := queuesim.New(ecfg, queuesim.Options{Depth: depth, Policy: policy, Factory: fc.factory})
						if err != nil {
							t.Fatal(err)
						}
						gen := traffic.Uniform{Rate: 0.8, Rng: xrand.New(99)}
						dest := make([]int, dcfg.Ports())
						for c := 0; c < cycles; c++ {
							gen.GenerateInto(dest, dcfg.Ports())
							dcs, err := dn.Cycle(dest)
							if err != nil {
								t.Fatal(err)
							}
							qcs, err := qn.Cycle(dest)
							if err != nil {
								t.Fatal(err)
							}
							if dcs != qcs {
								t.Fatalf("cycle %d: stats %+v vs queuesim %+v", c, dcs, qcs)
							}
							if dn.Queued() != qn.Queued() {
								t.Fatalf("cycle %d: queued %d vs %d", c, dn.Queued(), qn.Queued())
							}
						}
						if dn.Totals() != qn.Totals() {
							t.Fatalf("totals %+v vs %+v", dn.Totals(), qn.Totals())
						}
						histogramsEqual(t, dn.Latency(), qn.Latency())
					})
				}
			}
		}
	}
}

// TestDilationOneFaultedMatchesQueuesim extends the d=1 pin to degraded
// mode: a dead sub-wire (Boundary, Group, 0) of the 1-dilated delta is
// the dead interstage wire (Boundary, Wire=Group) of EDN(b,b,1,l), so
// the two engines must agree under matching fault sets, including an
// in-place mask swap mid-run and the repair. The unbuffered corner is
// compared with ParkedOnDead masked out: queuesim's depth-0 engine
// deliberately declines to classify pinned paths beyond stage 1 for the
// c=1 corner (see its cycleUnbuffered), while the dilated engine walks
// the whole pinned path — strictly more complete, so it may only ever
// report more parked packets, never fewer.
func TestDilationOneFaultedMatchesQueuesim(t *testing.T) {
	b, l := 2, 3
	dcfg := dilatedCfg(t, b, 1, l)
	ecfg, err := topology.NewDelta(b, b, l)
	if err != nil {
		t.Fatal(err)
	}
	// One fault timeline, swapped in thirds: healthy, faulted, repaired.
	// Dilated sub-wire IDs name stage-output (pre-shuffle) labels while
	// faults.WireID names the post-shuffle boundary wire, so the EDN
	// twin of group g is its image under the interstage gamma.
	rng := xrand.New(7)
	var dset, eset faults.Set
	for bd := 1; bd <= l; bd++ {
		tab := ecfg.InterstageTable(bd)
		for g := 0; g < dcfg.Ports(); g++ {
			if rng.Bool(0.15) {
				dset.Ports = append(dset.Ports, subWire(dcfg, bd, g, 0))
				w := g
				if tab != nil {
					w = int(tab[g])
				}
				eset.Wires = append(eset.Wires, faults.WireID{Boundary: bd, Wire: w})
			}
		}
	}
	dm := mustCompile(t, dcfg, dset)
	em := faults.MustCompile(ecfg, eset)
	empty := faults.MustCompile(ecfg, faults.Set{})

	for _, depth := range []int{0, 2} {
		for _, policy := range []Policy{Drop, Backpressure} {
			t.Run(fmt.Sprintf("depth%d/%v", depth, policy), func(t *testing.T) {
				dn, err := New(dcfg, Options{Depth: depth, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				qn, err := queuesim.New(ecfg, queuesim.Options{Depth: depth, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(3)}
				dest := make([]int, dcfg.Ports())
				const third = 120
				for c := 0; c < 3*third; c++ {
					switch c {
					case third:
						if err := dn.UpdateFaults(dm); err != nil {
							t.Fatal(err)
						}
						if err := qn.UpdateFaults(em); err != nil {
							t.Fatal(err)
						}
					case 2 * third:
						if err := dn.UpdateFaults(nil); err != nil {
							t.Fatal(err)
						}
						if err := qn.UpdateFaults(empty); err != nil {
							t.Fatal(err)
						}
					}
					gen.GenerateInto(dest, dcfg.Ports())
					dcs, err := dn.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					qcs, err := qn.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					if depth == 0 && policy == Backpressure {
						if dcs.ParkedOnDead < qcs.ParkedOnDead {
							t.Fatalf("cycle %d: dilated parked %d < queuesim %d", c, dcs.ParkedOnDead, qcs.ParkedOnDead)
						}
						dcs.ParkedOnDead, qcs.ParkedOnDead = 0, 0
					}
					if dcs != qcs {
						t.Fatalf("cycle %d: stats %+v vs queuesim %+v", c, dcs, qcs)
					}
				}
				if dn.Totals() != qn.Totals() {
					t.Fatalf("totals %+v vs %+v", dn.Totals(), qn.Totals())
				}
				histogramsEqual(t, dn.Latency(), qn.Latency())
			})
		}
	}
}

// TestConservation asserts the packet ledger across dilations, depths,
// policies and a mid-run fault swap: Injected == Refused + Delivered +
// Dropped + Stranded + Queued after every cycle.
func TestConservation(t *testing.T) {
	geometries := []struct{ b, d, l int }{
		{2, 2, 2},
		{4, 2, 2},
		{2, 4, 3},
	}
	depths := []int{0, 1, 4, Unbounded}
	policies := []Policy{Drop, Backpressure}
	for _, g := range geometries {
		cfg := dilatedCfg(t, g.b, g.d, g.l)
		plan := SubWires(cfg).Plan(xrand.New(11))
		masks := mustCompile(t, cfg, plan.At(0.2))
		for _, depth := range depths {
			for _, policy := range policies {
				t.Run(fmt.Sprintf("%v/depth%d/%v", cfg, depth, policy), func(t *testing.T) {
					net, err := New(cfg, Options{Depth: depth, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					gen := traffic.Uniform{Rate: 1, Rng: xrand.New(5)}
					dest := make([]int, cfg.Ports())
					check := func(c int) {
						tot := net.Totals()
						if got := tot.Refused + tot.Delivered + tot.Dropped + tot.Stranded + net.Queued(); got != tot.Injected {
							t.Fatalf("cycle %d: conservation broken: injected %d != accounted %d (%+v, queued %d)",
								c, tot.Injected, got, tot, net.Queued())
						}
					}
					for c := 0; c < 200; c++ {
						switch c {
						case 80:
							if err := net.UpdateFaults(masks); err != nil {
								t.Fatal(err)
							}
						case 140:
							if err := net.UpdateFaults(nil); err != nil {
								t.Fatal(err)
							}
						}
						check(c)
						gen.GenerateInto(dest, cfg.Ports())
						if _, err := net.Cycle(dest); err != nil {
							t.Fatal(err)
						}
					}
					check(200)
				})
			}
		}
	}
}

// TestUpdateFaultsMatchesConstruction pins the in-place swap against
// building the network with the masks from the start: identical
// subsequent behavior, cycle for cycle.
func TestUpdateFaultsMatchesConstruction(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 3)
	plan := SubWires(cfg).Plan(xrand.New(23))
	masks := mustCompile(t, cfg, plan.At(0.25))
	for _, depth := range []int{0, 3} {
		for _, policy := range []Policy{Drop, Backpressure} {
			t.Run(fmt.Sprintf("depth%d/%v", depth, policy), func(t *testing.T) {
				built, err := New(cfg, Options{Depth: depth, Policy: policy, Faults: masks})
				if err != nil {
					t.Fatal(err)
				}
				swapped, err := New(cfg, Options{Depth: depth, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				if err := swapped.UpdateFaults(masks); err != nil {
					t.Fatal(err)
				}
				gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(17)}
				dest := make([]int, cfg.Ports())
				for c := 0; c < 200; c++ {
					gen.GenerateInto(dest, cfg.Ports())
					a, err := built.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					b, err := swapped.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("cycle %d: built %+v vs swapped %+v", c, a, b)
					}
				}
				histogramsEqual(t, swapped.Latency(), built.Latency())
			})
		}
	}
}

// TestStrandingAndRepair exercises the PR 4 semantics on sub-wires:
// packets queued on a sub-wire that dies under them are discarded into
// Totals.Stranded under Drop; under Backpressure they park (counted
// every cycle in ParkedOnDead) and are delivered intact after repair.
func TestStrandingAndRepair(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 2)
	// Kill every sub-wire of boundary 1: all queued boundary-1 packets
	// strand and stage 1 heads park (every bucket has capacity 0).
	var all faults.Set
	for g := 0; g < cfg.Ports(); g++ {
		for w := 0; w < cfg.D; w++ {
			all.Ports = append(all.Ports, subWire(cfg, 1, g, w))
		}
	}
	masks := mustCompile(t, cfg, all)

	t.Run("drop-strands", func(t *testing.T) {
		net, err := New(cfg, Options{Depth: 4, Policy: Drop})
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.Uniform{Rate: 1, Rng: xrand.New(4)}
		dest := make([]int, cfg.Ports())
		for c := 0; c < 20; c++ {
			gen.GenerateInto(dest, cfg.Ports())
			if _, err := net.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		if net.Queued() == 0 {
			t.Fatal("no packets in flight before the fault")
		}
		if err := net.UpdateFaults(masks); err != nil {
			t.Fatal(err)
		}
		if net.Totals().Stranded == 0 {
			t.Fatal("killing a loaded boundary stranded nothing under Drop")
		}
	})

	t.Run("backpressure-parks-then-repairs", func(t *testing.T) {
		net, err := New(cfg, Options{Depth: 4, Policy: Backpressure})
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.Uniform{Rate: 1, Rng: xrand.New(4)}
		dest := make([]int, cfg.Ports())
		for c := 0; c < 20; c++ {
			gen.GenerateInto(dest, cfg.Ports())
			if _, err := net.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.UpdateFaults(masks); err != nil {
			t.Fatal(err)
		}
		if net.Totals().Stranded != 0 {
			t.Fatal("Backpressure must park, not strand")
		}
		idle := make([]int, cfg.Ports())
		for i := range idle {
			idle[i] = NoRequest
		}
		cs, err := net.Cycle(idle)
		if err != nil {
			t.Fatal(err)
		}
		if cs.ParkedOnDead == 0 {
			t.Fatal("no parked packets reported on a fully dead boundary")
		}
		before := net.Totals()
		if err := net.UpdateFaults(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Drain(10_000); err != nil {
			t.Fatal(err)
		}
		after := net.Totals()
		if after.Delivered-before.Delivered == 0 {
			t.Fatal("repair released no parked packets")
		}
		if got := after.Refused + after.Delivered + after.Dropped + after.Stranded; got != after.Injected {
			t.Fatalf("ledger broken after repair: %+v", after)
		}
	})
}

// TestSeveredPortUnreachable: killing every sub-wire of a final link
// group makes that output port unreachable — the reachability census
// drops and packets addressed there can never retire.
func TestSeveredPortUnreachable(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 2)
	var set faults.Set
	for w := 0; w < cfg.D; w++ {
		set.Ports = append(set.Ports, subWire(cfg, cfg.L, 1, w))
	}
	masks := mustCompile(t, cfg, set)
	if got, want := masks.ReachableOutputs(), cfg.Ports()-1; got != want {
		t.Fatalf("ReachableOutputs = %d, want %d", got, want)
	}
	net, err := New(cfg, Options{Depth: 2, Policy: Drop, Faults: masks})
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Ports())
	for i := range dest {
		dest[i] = 1 // everyone aims at the severed port
	}
	for c := 0; c < 50; c++ {
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	if net.Totals().Delivered != 0 {
		t.Fatalf("severed port delivered %d packets", net.Totals().Delivered)
	}
}

// TestMaskValidation covers Compile's range and sub-wire checks and the
// engine's config-mismatch rejection.
func TestMaskValidation(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 2)
	bad := []faults.Set{
		{Ports: []faults.PortID{subWire(cfg, 0, 0, 0)}},
		{Ports: []faults.PortID{subWire(cfg, cfg.L+1, 0, 0)}},
		{Ports: []faults.PortID{subWire(cfg, 1, cfg.Ports(), 0)}},
		{Ports: []faults.PortID{subWire(cfg, 1, 0, cfg.D)}},
		{Switches: []faults.SwitchID{{Stage: 1, Switch: 0}}},
		{Wires: []faults.WireID{{Boundary: 1, Wire: 0}}},
	}
	for i, set := range bad {
		if _, err := Compile(cfg, set); err == nil {
			t.Errorf("bad set %d compiled", i)
		}
	}
	// Duplicates are idempotent.
	m := mustCompile(t, cfg, faults.Set{Ports: []faults.PortID{
		subWire(cfg, 1, 0, 1), subWire(cfg, 1, 0, 1),
	}})
	if m.DeadPorts() != 1 {
		t.Errorf("duplicate sub-wire counted twice: %d", m.DeadPorts())
	}
	other := dilatedCfg(t, 2, 2, 3)
	net, err := New(other, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.UpdateFaults(m); err == nil {
		t.Error("mask for another configuration accepted")
	}
}

// TestPlanNests: rising fractions grow one fixed failure story.
func TestPlanNests(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 3)
	plan := SubWires(cfg).Plan(xrand.New(31))
	prev := map[faults.PortID]bool{}
	prevLen := 0
	for _, f := range []float64{0, 0.1, 0.3, 0.7, 1} {
		set := plan.At(f)
		cur := map[faults.PortID]bool{}
		for _, id := range set.Ports {
			cur[id] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("fraction %g lost sub-wire %+v", f, id)
			}
		}
		if len(cur) < prevLen {
			t.Fatalf("fraction %g shrank the set", f)
		}
		prev, prevLen = cur, len(cur)
	}
	if got := len(plan.At(1).Ports); got != cfg.L*cfg.Ports()*cfg.D {
		t.Fatalf("At(1) kills %d sub-wires, want the whole population %d", got, cfg.L*cfg.Ports()*cfg.D)
	}
}

// TestChurn: deterministic per seed, drifts toward the steady-state
// dead fraction, and emits compile-able sets.
func TestChurn(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 3)
	mtbf, mttr := 16.0, 4.0
	a, err := NewChurn(cfg, mtbf, mttr, lifecycle.Exponential, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChurn(cfg, mtbf, mttr, lifecycle.Exponential, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	var avg float64
	const epochs = 400
	for e := 0; e < epochs; e++ {
		sa, sb := a.Step(), b.Step()
		if len(sa.Ports) != len(sb.Ports) {
			t.Fatalf("epoch %d: same seed diverged (%d vs %d dead)", e, len(sa.Ports), len(sb.Ports))
		}
		if _, err := Compile(cfg, sa); err != nil {
			t.Fatalf("epoch %d: churn emitted an invalid set: %v", e, err)
		}
		if e >= epochs/2 {
			avg += a.DeadFraction()
		}
	}
	avg /= epochs / 2
	want := mttr / (mtbf + mttr)
	if avg < want*0.7 || avg > want*1.3 {
		t.Fatalf("steady-state dead fraction %.3f, want near %.3f", avg, want)
	}
	if _, err := NewChurn(cfg, 0.5, 4, lifecycle.Exponential, xrand.New(1)); err == nil {
		t.Error("MTBF < 1 accepted")
	}
	if _, err := NewChurn(cfg, 4, 0.5, lifecycle.Exponential, xrand.New(1)); err == nil {
		t.Error("MTTR < 1 accepted")
	}
}

// TestChurnClockLimits: the sub-wire churn is lifecycle's renewal
// process, so a huge MTBF means "never" here too, and non-finite clocks
// and unknown timings are rejected.
func TestChurnClockLimits(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 3)
	c, err := NewChurn(cfg, 1e17, 5, lifecycle.Exponential, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 100; e++ {
		if set := c.Step(); len(set.Ports) != 0 || c.DeadFraction() != 0 {
			t.Fatalf("epoch %d: MTBF 1e17 killed %d sub-wires", e, len(set.Ports))
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, clocks := range [][2]float64{{nan, 5}, {5, nan}, {inf, 5}, {5, inf}} {
		if _, err := NewChurn(cfg, clocks[0], clocks[1], lifecycle.Exponential, xrand.New(1)); err == nil {
			t.Errorf("MTBF %g, MTTR %g accepted", clocks[0], clocks[1])
		}
	}
	if _, err := NewChurn(cfg, 10, 5, lifecycle.Timing(7), xrand.New(1)); err == nil {
		t.Error("unknown timing accepted")
	}
}

// TestOptionValidation covers the constructor's input checking.
func TestOptionValidation(t *testing.T) {
	cfg := dilatedCfg(t, 2, 2, 2)
	if _, err := New(cfg, Options{Depth: -2}); err == nil {
		t.Error("depth -2 accepted")
	}
	if _, err := New(cfg, Options{Depth: 1, Policy: Policy(9)}); err == nil {
		t.Error("unknown policy accepted")
	}
	net, err := New(cfg, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Cycle(make([]int, 3)); err == nil {
		t.Error("wrong-length injection vector accepted")
	}
	bad := make([]int, cfg.Ports())
	bad[0] = cfg.Ports()
	if _, err := net.Cycle(bad); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// TestTablesBytesAreTheFabricTables pins the cache ledger's unit for a
// dilated entry: Bytes counts exactly the sub-wire tables the fabric
// descriptor routes by, 4 bytes per entry — one ports*d table per
// boundary whose delta skeleton wiring is not the identity — and
// nothing it never reads.
func TestTablesBytesAreTheFabricTables(t *testing.T) {
	for _, g := range []struct{ b, d, l int }{{2, 1, 3}, {2, 2, 2}, {2, 2, 3}, {4, 2, 2}, {2, 4, 10}} {
		dcfg := dilatedCfg(t, g.b, g.d, g.l)
		f, err := Fabric(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := topology.New(g.b, g.b, 1, g.l)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for s := 1; s <= g.l; s++ {
			if delta.InterstageTable(s) != nil {
				want += 4 * int64(dcfg.Ports()*g.d)
			}
		}
		if got := f.Bytes(); got != want || want == 0 {
			t.Errorf("b=%d d=%d l=%d: Bytes() = %d, the fabric's tables hold %d", g.b, g.d, g.l, got, want)
		}
	}
}
