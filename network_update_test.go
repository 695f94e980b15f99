package edn

import (
	"fmt"
	"testing"

	"edn/internal/faults"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// epochMasks draws a fault timeline for cfg: a sequence of compiled
// masks including failures, partial repairs and a full repair (the
// empty mask), so an incremental consumer exercises both directions of
// the swap.
func epochMasks(t testing.TB, cfg topology.Config, mode faults.Mode, seed uint64, epochs int) []*faults.Masks {
	t.Helper()
	rng := xrand.New(seed)
	masks := make([]*faults.Masks, epochs)
	for e := range masks {
		var set faults.Set
		switch {
		case e == epochs/2:
			// Mid-life full repair: the empty mask must restore the
			// fast paths exactly.
			set = faults.Set{}
		case e%3 == 2:
			// A correlated blast on top of Bernoulli churn.
			set = faults.Bernoulli(cfg, mode, 0.05+0.1*rng.Float64(), rng)
			blast, err := faults.Blast(cfg, 1+rng.Intn(cfg.L+1), rng.Intn(cfg.SwitchesInStage(1)), 1)
			if err != nil {
				t.Fatal(err)
			}
			set.Switches = append(set.Switches, blast.Switches...)
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

// TestUpdateFaultsMatchesRebuildPerEpoch is the incremental-mask
// property test: one network receiving UpdateFaults at every epoch
// boundary must route every cycle bit-for-bit like a network freshly
// rebuilt with that epoch's masks. The engine is memoryless across
// cycles under the stateless priority arbitration (fused and
// non-fused), so rebuild-from-scratch is well-defined; geometries
// cover expanded, wide-switch and delta-corner shapes, and the mask
// timeline includes a mid-life full repair.
func TestUpdateFaultsMatchesRebuildPerEpoch(t *testing.T) {
	geometries := []struct{ a, b, c, l int }{
		{4, 4, 2, 2}, {8, 2, 4, 2}, {16, 4, 4, 2}, {4, 4, 1, 2},
	}
	factories := []struct {
		name    string
		factory switchfab.ArbiterFactory
	}{
		{"priority", nil},
		{"explicit-priority", switchfab.PriorityArbiters},
	}
	const epochs, cyclesPerEpoch = 9, 12
	for _, g := range geometries {
		cfg := faultCfg(t, g.a, g.b, g.c, g.l)
		for _, mode := range []faults.Mode{faults.WireFaults, faults.MixedFaults} {
			masks := epochMasks(t, cfg, mode, 0x1234+uint64(g.a*g.l), epochs)
			for _, fac := range factories {
				t.Run(fmt.Sprintf("%v/%v/%s", cfg, mode, fac.name), func(t *testing.T) {
					inc, err := NewNetwork(cfg, fac.factory)
					if err != nil {
						t.Fatal(err)
					}
					rng := xrand.New(77)
					dest := make([]int, cfg.Inputs())
					incOut := make([]Outcome, cfg.Inputs())
					refOut := make([]Outcome, cfg.Inputs())
					for e, m := range masks {
						if err := inc.UpdateFaults(m); err != nil {
							t.Fatal(err)
						}
						ref, err := NewNetworkWithFaults(cfg, fac.factory, m)
						if err != nil {
							t.Fatal(err)
						}
						for c := 0; c < cyclesPerEpoch; c++ {
							for i := range dest {
								if rng.Bool(0.9) {
									dest[i] = rng.Intn(cfg.Outputs())
								} else {
									dest[i] = NoRequest
								}
							}
							ics, err := inc.RouteCycleInto(dest, incOut)
							if err != nil {
								t.Fatal(err)
							}
							rcs, err := ref.RouteCycleInto(dest, refOut)
							if err != nil {
								t.Fatal(err)
							}
							if ics.Offered != rcs.Offered || ics.Delivered != rcs.Delivered {
								t.Fatalf("epoch %d cycle %d: stats %+v vs rebuilt %+v", e, c, ics, rcs)
							}
							for s := range ics.Blocked {
								if ics.Blocked[s] != rcs.Blocked[s] {
									t.Fatalf("epoch %d cycle %d: blocked[%d] %d vs %d", e, c, s, ics.Blocked[s], rcs.Blocked[s])
								}
							}
							for i := range incOut {
								if incOut[i] != refOut[i] {
									t.Fatalf("epoch %d cycle %d input %d: %+v vs rebuilt %+v", e, c, i, incOut[i], refOut[i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestUpdateFaultsMatchesConstructionPerMask covers the stateful
// arbiters the rebuild-per-epoch reference cannot (a rebuilt arbiter
// starts fresh while an incremental one has history): for every mask in
// a timeline, a virgin network that receives the mask via UpdateFaults
// must match a network constructed with it directly — same factory
// semantics, same virgin arbiter state — across a burst of cycles.
func TestUpdateFaultsMatchesConstructionPerMask(t *testing.T) {
	cfg := faultCfg(t, 8, 4, 2, 2)
	factories := []struct {
		name    string
		factory func(seed uint64) switchfab.ArbiterFactory
	}{
		{"roundrobin", func(uint64) switchfab.ArbiterFactory {
			return func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
		}},
		{"random", func(seed uint64) switchfab.ArbiterFactory {
			rng := xrand.New(seed)
			return func() switchfab.Arbiter { return switchfab.RandomArbiter{Perm: rng.Split().Perm} }
		}},
	}
	masks := epochMasks(t, cfg, faults.MixedFaults, 42, 6)
	for _, fac := range factories {
		t.Run(fac.name, func(t *testing.T) {
			for e, m := range masks {
				// Identical factory seeds: serial networks instantiate
				// arbiters lazily in deterministic order, so the two draw
				// identical per-switch streams.
				inc, err := NewNetwork(cfg, fac.factory(uint64(e)+9))
				if err != nil {
					t.Fatal(err)
				}
				if err := inc.UpdateFaults(m); err != nil {
					t.Fatal(err)
				}
				ref, err := NewNetworkWithFaults(cfg, fac.factory(uint64(e)+9), m)
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(uint64(e)*13 + 1)
				dest := make([]int, cfg.Inputs())
				incOut := make([]Outcome, cfg.Inputs())
				refOut := make([]Outcome, cfg.Inputs())
				for c := 0; c < 10; c++ {
					for i := range dest {
						dest[i] = rng.Intn(cfg.Outputs())
					}
					ics, err := inc.RouteCycleInto(dest, incOut)
					if err != nil {
						t.Fatal(err)
					}
					rcs, err := ref.RouteCycleInto(dest, refOut)
					if err != nil {
						t.Fatal(err)
					}
					if ics.Delivered != rcs.Delivered {
						t.Fatalf("mask %d cycle %d: delivered %d vs %d", e, c, ics.Delivered, rcs.Delivered)
					}
					for i := range incOut {
						if incOut[i] != refOut[i] {
							t.Fatalf("mask %d cycle %d input %d: %+v vs %+v", e, c, i, incOut[i], refOut[i])
						}
					}
				}
			}
		})
	}
}

// TestUpdateFaultsConfigMismatch pins the error path: masks for another
// geometry are refused and the previous masks stay in effect — a
// request on the input they sever still blocks at stage 1.
func TestUpdateFaultsConfigMismatch(t *testing.T) {
	cfg := faultCfg(t, 4, 4, 2, 2)
	other := faultCfg(t, 8, 2, 4, 2)
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	m := faults.MustCompile(cfg, faults.Set{Wires: []faults.WireID{{Boundary: 0, Wire: dead}}})
	if err := net.UpdateFaults(m); err != nil {
		t.Fatal(err)
	}
	wrong := faults.MustCompile(other, faults.Bernoulli(other, faults.WireFaults, 0.2, xrand.New(1)))
	if err := net.UpdateFaults(wrong); err == nil {
		t.Fatal("masks for another config should be refused")
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	dest[dead] = 0
	out, _, err := net.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if out[dead].BlockedStage != 1 {
		t.Errorf("failed update cleared the previous masks: request on the dead input got %+v, want blocked at stage 1", out[dead])
	}
}

// TestUpdateFaultsZeroAlloc pins the epoch hot path: swapping
// precompiled masks and routing allocates nothing.
func TestUpdateFaultsZeroAlloc(t *testing.T) {
	cfg := faultCfg(t, 16, 4, 4, 2)
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1 := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.WireFaults, 0.1, xrand.New(3)))
	m2 := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.WireFaults, 0.2, xrand.New(4)))
	empty := faults.MustCompile(cfg, faults.Set{})
	masks := []*faults.Masks{m1, m2, empty}
	dest := make([]int, cfg.Inputs())
	out := make([]Outcome, cfg.Inputs())
	rng := xrand.New(5)
	for i := range dest {
		dest[i] = rng.Intn(cfg.Outputs())
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := net.UpdateFaults(masks[i%len(masks)]); err != nil {
			t.Fatal(err)
		}
		if _, err := net.RouteCycleInto(dest, out); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("mask swap + route allocated %.1f times per epoch", allocs)
	}
}
