package queuesim_test

// The bridge pins live in an external test package: they read both
// engines through their exported counters only.

import (
	"fmt"
	"strings"
	"testing"

	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// bridgeGeometries spans rectangular, square, delta-corner (c=1),
// single-hyperbar, deep and wide-bucket EDNs.
var bridgeGeometries = [][4]int{
	{4, 4, 2, 2}, {8, 2, 4, 2}, {16, 4, 4, 2}, {4, 4, 1, 2}, {64, 16, 4, 2},
	{4, 2, 2, 3}, {2, 2, 1, 4}, {8, 8, 1, 1}, {16, 4, 4, 5}, {4, 4, 4, 3}, {32, 4, 8, 2},
}

// bridgeFactory makes one independent factory per engine. The random
// arbiter draws from a per-switch stream: the pipeline visits a batch's
// stages in later calls than the sweep does, so a stream shared across
// switches would be consumed in a different order.
type bridgeFactory struct {
	name string
	make func() switchfab.ArbiterFactory
}

var bridgeFactories = []bridgeFactory{
	{"priority", func() switchfab.ArbiterFactory { return nil }},
	{"explicit-priority", func() switchfab.ArbiterFactory { return switchfab.PriorityArbiters }},
	{"roundrobin", func() switchfab.ArbiterFactory {
		return func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
	}},
	{"random", func() switchfab.ArbiterFactory {
		return func() switchfab.Arbiter { return switchfab.RandomArbiter{Perm: xrand.New(17).Perm} }
	}},
}

func bridgeCfg(t testing.TB, g [4]int) topology.Config {
	t.Helper()
	cfg, err := topology.New(g[0], g[1], g[2], g[3])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// faultCase is a mask timeline: one segment per mask, nil = fully live.
type faultCase struct {
	name  string
	masks []*faults.Masks
}

// bridgeFaultCases draws every fault kind over cfg — Bernoulli wires,
// switches and both, switch ports (crossbar ports are dead terminals),
// dead inputs, a blast — plus a four-mask churn ending in repair.
func bridgeFaultCases(t testing.TB, cfg topology.Config, seed uint64) []faultCase {
	t.Helper()
	rng := xrand.New(seed)
	compile := func(sets ...faults.Set) *faults.Masks {
		var all faults.Set
		for _, s := range sets {
			all.Switches = append(all.Switches, s.Switches...)
			all.Wires = append(all.Wires, s.Wires...)
			all.Ports = append(all.Ports, s.Ports...)
		}
		m, err := faults.Compile(cfg, all)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ports := func(n int) (set faults.Set) {
		for k := 0; k < n; k++ {
			s := 1 + rng.Intn(cfg.L+1)
			p := faults.PortID{Stage: s, Switch: rng.Intn(cfg.SwitchesInStage(s))}
			if s == cfg.L+1 {
				p.Bucket = rng.Intn(cfg.C)
			} else {
				p.Bucket, p.Wire = rng.Intn(cfg.B), rng.Intn(cfg.C)
			}
			set.Ports = append(set.Ports, p)
		}
		return set
	}
	inputs := func(n int) (set faults.Set) {
		for k := 0; k < n; k++ {
			set.Wires = append(set.Wires, faults.WireID{Boundary: 0, Wire: rng.Intn(cfg.Inputs())})
		}
		return set
	}
	blast := func() faults.Set {
		s := 1 + rng.Intn(cfg.L+1)
		set, err := faults.Blast(cfg, s, rng.Intn(cfg.SwitchesInStage(s)), 1)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	return []faultCase{
		{"none", []*faults.Masks{nil}},
		{"wires", []*faults.Masks{compile(faults.Bernoulli(cfg, faults.WireFaults, 0.15, rng))}},
		{"switches", []*faults.Masks{compile(faults.Bernoulli(cfg, faults.SwitchFaults, 0.15, rng))}},
		{"mixed", []*faults.Masks{compile(faults.Bernoulli(cfg, faults.MixedFaults, 0.1, rng))}},
		{"ports", []*faults.Masks{compile(ports(6))}},
		{"inputs", []*faults.Masks{compile(inputs(3))}},
		{"blast", []*faults.Masks{compile(blast())}},
		{"churn", []*faults.Masks{
			compile(faults.Bernoulli(cfg, faults.MixedFaults, 0.1, rng)),
			compile(inputs(2), faults.Bernoulli(cfg, faults.WireFaults, 0.1, rng)),
			compile(blast()),
			compile(ports(4)),
			nil,
		}},
	}
}

// pinDepth1 drives the same batches through the depth-0 Drop sweep and
// a depth-1 Drop pipeline, one mask segment at a time with the pipeline
// drained between segments, and requires every batch's delivered count
// and per-stage blocking to agree. Both sides are read from the
// engine's own per-cycle deltas — Delivered, Refused (a request refused
// at a dead input is a stage-1 block) and DroppedPerStage. Batch k's
// stage-s drops happen in pipeline call k+s and its deliveries in call
// k+Stages().
func pinDepth1(t *testing.T, cfg topology.Config, fac bridgeFactory, masks []*faults.Masks, batches int, gen traffic.IntoGenerator) {
	t.Helper()
	sweep, err := queuesim.New(cfg, queuesim.Options{Policy: queuesim.Drop, Factory: fac.make()})
	if err != nil {
		t.Fatal(err)
	}
	q, err := queuesim.New(cfg, queuesim.Options{Depth: 1, Policy: queuesim.Drop, Factory: fac.make()})
	if err != nil {
		t.Fatal(err)
	}
	stages := cfg.Stages()
	dest := make([]int, cfg.Inputs())
	idle := make([]int, cfg.Inputs())
	for i := range idle {
		idle[i] = queuesim.NoRequest
	}
	for seg, m := range masks {
		if err := sweep.UpdateFaults(m); err != nil {
			t.Fatal(err)
		}
		if err := q.UpdateFaults(m); err != nil {
			t.Fatal(err)
		}
		want := make([][]int, batches) // [batch] delivered, then blocked per stage
		got := make([][]int, batches)
		for k := range got {
			got[k] = make([]int, 1+stages)
		}
		prev, sprev := q.DroppedPerStage(), sweep.DroppedPerStage()
		for call := 0; call < batches+stages; call++ {
			in := idle
			if call < batches {
				gen.GenerateInto(dest, cfg.Outputs())
				in = dest
				cs, err := sweep.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				cur := sweep.DroppedPerStage()
				want[call] = make([]int, 1+stages)
				want[call][0], want[call][1] = cs.Delivered, cs.Refused
				for s := range cur {
					want[call][1+s] += int(cur[s] - sprev[s])
				}
				sprev = cur
			}
			qs, err := q.Cycle(in)
			if err != nil {
				t.Fatal(err)
			}
			if call < batches {
				got[call][1] += qs.Refused
			}
			if k := call - stages; k >= 0 {
				got[k][0] = qs.Delivered
			} else if qs.Delivered != 0 {
				t.Fatalf("segment %d call %d: delivered %d before the pipeline could fill", seg, call, qs.Delivered)
			}
			cur := q.DroppedPerStage()
			for s := 1; s <= stages; s++ {
				drops := int(cur[s-1] - prev[s-1])
				if k := call - s; k >= 0 && k < batches {
					got[k][1+s-1] += drops
				} else if drops != 0 {
					t.Fatalf("segment %d call %d: %d stage-%d drops belong to no batch", seg, call, drops, s)
				}
			}
			prev = cur
		}
		for k := range want {
			for j := range want[k] {
				if got[k][j] != want[k][j] {
					t.Fatalf("segment %d batch %d: depth-1 [delivered, blocked/stage...] %v, depth-0 %v", seg, k, got[k], want[k])
				}
			}
		}
		if q.Queued() != 0 {
			t.Fatalf("segment %d: %d packets left after drain", seg, q.Queued())
		}
	}
}

// TestDepth1DropMatchesUnbufferedEngine pins the bridge between the two
// kernels: with depth-1 FIFOs and the Drop policy, batches march
// through the pipeline in lockstep without interacting, so every grant
// decision — per-batch delivered counts and per-stage blocking — must
// be bit-identical to the depth-0 sweep's on the same traffic stream,
// time-shifted by exactly the pipeline fill of Stages() cycles.
func TestDepth1DropMatchesUnbufferedEngine(t *testing.T) {
	for _, g := range bridgeGeometries {
		cfg := bridgeCfg(t, g)
		for _, fac := range bridgeFactories {
			for _, pat := range []string{"uniform", "permutation"} {
				t.Run(fmt.Sprintf("%v/%s/%s", cfg, fac.name, pat), func(t *testing.T) {
					rng := xrand.New(99)
					var gen traffic.IntoGenerator = traffic.Uniform{Rate: 1, Rng: rng}
					if pat == "permutation" {
						gen = &traffic.RandomPermutation{Rng: rng}
					}
					pinDepth1(t, cfg, fac, []*faults.Masks{nil}, 60, gen)
				})
			}
		}
	}
}

// TestDepth1DropWithFaultsMatchesFaultyCore extends the bridge to
// degraded mode: under every fault kind, and across a mask churn that
// ends in full repair, the faulted depth-1 pipeline reproduces the
// faulted depth-0 sweep batch for batch. Dead inputs refuse at the
// source in both engines, so each side's stage-1 count adds its
// refusals.
func TestDepth1DropWithFaultsMatchesFaultyCore(t *testing.T) {
	for _, g := range bridgeGeometries {
		cfg := bridgeCfg(t, g)
		for fi, fac := range bridgeFactories {
			for _, fc := range bridgeFaultCases(t, cfg, uint64(fi+1)*7919+uint64(cfg.Inputs())) {
				t.Run(fmt.Sprintf("%v/%s/%s", cfg, fac.name, fc.name), func(t *testing.T) {
					gen := traffic.Uniform{Rate: 0.8, Rng: xrand.New(uint64(cfg.Inputs()) + 5)}
					pinDepth1(t, cfg, fac, fc.masks, 60/len(fc.masks), gen)
				})
			}
		}
	}
}

// shortArbiter returns an order shorter than its switch.
type shortArbiter struct{}

func (shortArbiter) Order(int) []int { return []int{0} }

// repeatArbiter returns a full-length order that repeats input 0.
type repeatArbiter struct{}

func (repeatArbiter) Order(n int) []int { return make([]int, n) }

// outOfRangeArbiter fills its in-place order with an index past the
// switch width.
type outOfRangeArbiter struct{ repeatArbiter }

func (outOfRangeArbiter) OrderInto(order []int) {
	for i := range order {
		order[i] = len(order)
	}
}

// TestMalformedArbiterOrderIsAnError: an arbiter whose order is not a
// permutation of its switch's inputs must make the cycle fail with an
// error naming the stage and switch — at depth 0 and 4, under both
// policies — never panic or arbitrate by the bad order, and the
// engine's ledger must still conserve. The root package's
// TestMalformedArbiterOrderIsAnError covers the cycle-level Network.
func TestMalformedArbiterOrderIsAnError(t *testing.T) {
	cfg := bridgeCfg(t, [4]int{16, 4, 4, 2})
	full := make([]int, cfg.Inputs())
	for i := range full {
		full[i] = i % cfg.Outputs()
	}
	arbiters := map[string]switchfab.Arbiter{
		"short":        shortArbiter{},
		"repeat":       repeatArbiter{},
		"out-of-range": outOfRangeArbiter{},
	}
	for name, a := range arbiters {
		factory := func() switchfab.Arbiter { return a }
		checkErr := func(t *testing.T, err error) {
			t.Helper()
			if err == nil {
				t.Fatal("malformed arbitration order accepted")
			}
			if !strings.Contains(err.Error(), "stage ") || !strings.Contains(err.Error(), "switch ") {
				t.Fatalf("error does not name the stage and switch: %v", err)
			}
		}
		for _, depth := range []int{0, 4} {
			for _, pol := range []queuesim.Policy{queuesim.Backpressure, queuesim.Drop} {
				t.Run(fmt.Sprintf("%s/depth=%d/%v", name, depth, pol), func(t *testing.T) {
					q, err := queuesim.New(cfg, queuesim.Options{Depth: depth, Policy: pol, Factory: factory})
					if err != nil {
						t.Fatal(err)
					}
					// A pipeline first arbitrates the cycle after injection.
					_, err = q.Cycle(full)
					if depth != 0 {
						if err != nil {
							t.Fatal(err)
						}
						_, err = q.Cycle(full)
					}
					checkErr(t, err)
					tot := q.Totals()
					if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+tot.Stranded+q.Queued() {
						t.Fatalf("conservation broken after the error: %+v queued=%d", tot, q.Queued())
					}
				})
			}
		}
	}
}
