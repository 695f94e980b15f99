package core

import (
	"fmt"
	"math"
	"testing"

	"edn/internal/faults"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func faultCfg(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestEmptyMaskBitForBit pins the first fault-tolerance invariant: a
// network built with an empty (or nil-compiled) fault mask produces
// exactly the same Outcomes and CycleStats as one built without masks,
// across geometries, arbiter factories and traffic.
func TestEmptyMaskBitForBit(t *testing.T) {
	geometries := []struct{ a, b, c, l int }{
		{4, 4, 2, 2}, {8, 2, 4, 2}, {16, 4, 4, 2}, {4, 4, 1, 2},
	}
	factories := []struct {
		name    string
		factory switchfab.ArbiterFactory
	}{
		{"priority", nil},
		{"explicit-priority", switchfab.PriorityArbiters},
		{"roundrobin", func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }},
	}
	for _, g := range geometries {
		cfg := faultCfg(t, g.a, g.b, g.c, g.l)
		empty, err := faults.Compile(cfg, faults.Set{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fac := range factories {
			t.Run(fmt.Sprintf("%v/%s", cfg, fac.name), func(t *testing.T) {
				// Stateful arbiters advance with traffic, so every
				// comparison needs its own fresh reference network.
				newRef := func() *Network {
					ref, err := NewNetwork(cfg, fac.factory)
					if err != nil {
						t.Fatal(err)
					}
					return ref
				}
				masked, err := NewNetworkWithFaults(cfg, fac.factory, empty)
				if err != nil {
					t.Fatal(err)
				}
				if masked.Faulted() {
					t.Fatal("empty mask marked the network faulted")
				}
				compareNetworksBitForBit(t, cfg, newRef(), masked, 40, 11)
			})
		}
	}
}

// compareNetworksBitForBit drives both networks with an identical
// traffic stream and requires identical Outcomes and CycleStats every
// cycle.
func compareNetworksBitForBit(t *testing.T, cfg topology.Config, ref, got *Network, cycles int, seed uint64) {
	t.Helper()
	gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(seed)}
	dest := make([]int, cfg.Inputs())
	refOut := make([]Outcome, cfg.Inputs())
	gotOut := make([]Outcome, cfg.Inputs())
	for cycle := 0; cycle < cycles; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		rcs, err := ref.RouteCycleInto(dest, refOut)
		if err != nil {
			t.Fatal(err)
		}
		gcs, err := got.RouteCycleInto(dest, gotOut)
		if err != nil {
			t.Fatal(err)
		}
		if rcs.Offered != gcs.Offered || rcs.Delivered != gcs.Delivered {
			t.Fatalf("cycle %d: stats diverge: ref %+v, got %+v", cycle, rcs, gcs)
		}
		for s := range rcs.Blocked {
			if rcs.Blocked[s] != gcs.Blocked[s] {
				t.Fatalf("cycle %d stage %d: blocked %d vs %d", cycle, s+1, rcs.Blocked[s], gcs.Blocked[s])
			}
		}
		for i := range refOut {
			if refOut[i] != gotOut[i] {
				t.Fatalf("cycle %d input %d: outcome %+v vs %+v", cycle, i, refOut[i], gotOut[i])
			}
		}
	}
}

// TestMaskedFastPathMatchesMaskedArbiterPath cross-validates the two
// masked kernels: the nil-factory fused priority path and the explicit
// switchfab.PriorityArbiters factory path must make identical grant decisions on
// a faulted network.
func TestMaskedFastPathMatchesMaskedArbiterPath(t *testing.T) {
	for _, g := range []struct{ a, b, c, l int }{{4, 4, 2, 2}, {16, 4, 4, 2}, {4, 4, 1, 2}} {
		cfg := faultCfg(t, g.a, g.b, g.c, g.l)
		set := faults.Bernoulli(cfg, faults.MixedFaults, 0.15, xrand.New(3))
		m, err := faults.Compile(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewNetworkWithFaults(cfg, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewNetworkWithFaults(cfg, switchfab.PriorityArbiters, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.String(), func(t *testing.T) {
			compareNetworksBitForBit(t, cfg, fast, slow, 50, 17)
		})
	}
}

// TestDeadWireRoutesAround: with c=2 every bucket has a spare wire, so
// a single dead interstage wire must not change which requests are
// *deliverable* under light conflict-free load — only which wire they
// ride.
func TestDeadWireRoutesAround(t *testing.T) {
	cfg := faultCfg(t, 4, 4, 2, 2) // 4 inputs, c=2: two wires per bucket
	m, err := faults.Compile(cfg, faults.Set{Wires: []faults.WireID{{Boundary: 1, Wire: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetworkWithFaults(cfg, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	// A single request can always be delivered: it meets no contention
	// and every bucket on its path keeps at least one live wire.
	for dst := 0; dst < cfg.Outputs(); dst++ {
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			dest[i] = NoRequest
		}
		dest[0] = dst
		outcomes, cs, err := net.RouteCycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Delivered != 1 || outcomes[0].Output != dst {
			t.Fatalf("dst %d: single request not delivered around the dead wire: %+v", dst, outcomes[0])
		}
	}
}

// TestDeltaCornerDeadWireDisconnects is the structural contrast: in the
// c=1 corner the same single dead wire severs every path through it, so
// some destination becomes unreachable.
func TestDeltaCornerDeadWireDisconnects(t *testing.T) {
	cfg := faultCfg(t, 4, 4, 1, 2)
	m, err := faults.Compile(cfg, faults.Set{Wires: []faults.WireID{{Boundary: 1, Wire: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetworkWithFaults(cfg, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	// Each (src, dst) pair has exactly one path; the dead wire must cut
	// at least one of them, no matter where gamma puts it.
	blockedSomewhere := false
	for src := 0; src < cfg.Inputs() && !blockedSomewhere; src++ {
		for dst := 0; dst < cfg.Outputs(); dst++ {
			dest := make([]int, cfg.Inputs())
			for i := range dest {
				dest[i] = NoRequest
			}
			dest[src] = dst
			outcomes, _, err := net.RouteCycle(dest)
			if err != nil {
				t.Fatal(err)
			}
			if !outcomes[src].Delivered() {
				blockedSomewhere = true
				break
			}
		}
	}
	if !blockedSomewhere {
		t.Fatal("single-path delta delivered everywhere despite a dead interstage wire")
	}
}

// TestFullyDeadStage kills every switch of a middle stage: the network
// must route nothing, block everything, and not panic — on the fused
// path and the arbiter path.
func TestFullyDeadStage(t *testing.T) {
	cfg := faultCfg(t, 16, 4, 4, 2)
	var set faults.Set
	for sw := 0; sw < cfg.SwitchesInStage(2); sw++ {
		set.Switches = append(set.Switches, faults.SwitchID{Stage: 2, Switch: sw})
	}
	m, err := faults.Compile(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, fac := range []struct {
		name    string
		factory switchfab.ArbiterFactory
	}{{"priority", nil}, {"roundrobin", func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }}} {
		t.Run(fac.name, func(t *testing.T) {
			net, err := NewNetworkWithFaults(cfg, fac.factory, m)
			if err != nil {
				t.Fatal(err)
			}
			gen := traffic.Uniform{Rate: 1, Rng: xrand.New(2)}
			dest := make([]int, cfg.Inputs())
			outcomes := make([]Outcome, cfg.Inputs())
			for cycle := 0; cycle < 10; cycle++ {
				gen.GenerateInto(dest, cfg.Outputs())
				cs, err := net.RouteCycleInto(dest, outcomes)
				if err != nil {
					t.Fatal(err)
				}
				if cs.Delivered != 0 {
					t.Fatalf("delivered %d through a fully dead stage", cs.Delivered)
				}
				if cs.BlockedTotal() != cs.Offered {
					t.Fatalf("offered %d but blocked only %d", cs.Offered, cs.BlockedTotal())
				}
				// Everything dies at stage 1: the dead stage-2 switches
				// mask every stage-1 output wire.
				if cs.Blocked[0] != cs.Offered {
					t.Fatalf("blocked %v, want all %d at stage 1", cs.Blocked, cs.Offered)
				}
			}
		})
	}
}

// TestDeadInputsBlockAtStageOne: requests entering on severed inputs
// are offered, blocked at stage 1, and never perturb live traffic.
func TestDeadInputsBlockAtStageOne(t *testing.T) {
	cfg := faultCfg(t, 16, 4, 4, 2)
	m, err := faults.Compile(cfg, faults.Set{Switches: []faults.SwitchID{{Stage: 1, Switch: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetworkWithFaults(cfg, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = i % cfg.Outputs()
	}
	outcomes, cs, err := net.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Offered != cfg.Inputs() {
		t.Fatalf("offered %d, want %d (dead inputs still count as offered)", cs.Offered, cfg.Inputs())
	}
	for i := 0; i < cfg.A; i++ {
		if outcomes[i].Delivered() || outcomes[i].BlockedStage != 1 {
			t.Fatalf("input %d on the dead switch: outcome %+v, want blocked at stage 1", i, outcomes[i])
		}
	}
	if cs.Blocked[0] < cfg.A {
		t.Fatalf("stage-1 blocked %d, want at least the %d dead inputs", cs.Blocked[0], cfg.A)
	}
}

// TestSingleFaultMatchesExpectedDegradation is the analytic cross-check:
// for single-fault cases the measured mean bandwidth must track the
// per-wire generalization of the Theorem 3 recursion about as closely
// as the unfaulted closed form tracks the unfaulted simulator.
func TestSingleFaultMatchesExpectedDegradation(t *testing.T) {
	cfg := faultCfg(t, 16, 4, 4, 2)
	singles := []struct {
		name string
		set  faults.Set
	}{
		{"none", faults.Set{}},
		{"one-wire", faults.Set{Wires: []faults.WireID{{Boundary: 1, Wire: 7}}}},
		{"one-port", faults.Set{Ports: []faults.PortID{{Stage: 1, Switch: 2, Bucket: 1, Wire: 0}}}},
		{"one-output", faults.Set{Ports: []faults.PortID{{Stage: cfg.L + 1, Switch: 3, Bucket: 2, Wire: 0}}}},
		{"one-switch-stage2", faults.Set{Switches: []faults.SwitchID{{Stage: 2, Switch: 1}}}},
		{"one-input-switch", faults.Set{Switches: []faults.SwitchID{{Stage: 1, Switch: 3}}}},
	}
	const cycles = 3000
	for _, tc := range singles {
		t.Run(tc.name, func(t *testing.T) {
			m, err := faults.Compile(cfg, tc.set)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewNetworkWithFaults(cfg, nil, m)
			if err != nil {
				t.Fatal(err)
			}
			gen := traffic.Uniform{Rate: 1, Rng: xrand.New(12345)}
			dest := make([]int, cfg.Inputs())
			outcomes := make([]Outcome, cfg.Inputs())
			var delivered int64
			for cycle := 0; cycle < cycles; cycle++ {
				gen.GenerateInto(dest, cfg.Outputs())
				cs, err := net.RouteCycleInto(dest, outcomes)
				if err != nil {
					t.Fatal(err)
				}
				delivered += int64(cs.Delivered)
			}
			measured := float64(delivered) / cycles
			expected := faults.ExpectedUniformBandwidth(m, 1)
			if rel := math.Abs(measured-expected) / expected; rel > 0.05 {
				t.Errorf("measured bandwidth %.2f vs expected %.2f (%.1f%% off)", measured, expected, rel*100)
			}
		})
	}
}
