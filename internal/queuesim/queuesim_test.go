package queuesim

import (
	"fmt"
	"testing"

	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func mustCfg(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

var testGeometries = []struct{ a, b, c, l int }{
	{4, 4, 2, 2},   // small rectangular EDN
	{8, 2, 4, 2},   // wide buckets
	{16, 4, 4, 2},  // square EDN
	{4, 4, 1, 2},   // delta corner (single path)
	{64, 16, 4, 2}, // the MasPar geometry
}

func roundRobinFactory() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }

// TestConservationInvariant is the property test of the issue: after
// every cycle, injected = refused + delivered + dropped + still-queued,
// across geometries, depths, policies and arbiter factories.
func TestConservationInvariant(t *testing.T) {
	depths := []int{0, 1, 3, Unbounded}
	policies := []Policy{Backpressure, Drop}
	factories := []struct {
		name    string
		factory switchfab.ArbiterFactory
	}{
		{"priority", nil},
		{"roundrobin", roundRobinFactory},
	}
	for _, g := range testGeometries[:4] { // keep the sweep quick
		cfg := mustCfg(t, g.a, g.b, g.c, g.l)
		for _, depth := range depths {
			for _, pol := range policies {
				for _, fac := range factories {
					name := fmt.Sprintf("%v/depth=%d/%v/%s", cfg, depth, pol, fac.name)
					t.Run(name, func(t *testing.T) {
						q, err := New(cfg, Options{Depth: depth, Policy: pol, Factory: fac.factory})
						if err != nil {
							t.Fatal(err)
						}
						rng := xrand.New(uint64(depth*131 + int(pol)*17 + 3))
						gen := traffic.Uniform{Rate: 0.85, Rng: rng}
						dest := make([]int, cfg.Inputs())
						for cycle := 0; cycle < 120; cycle++ {
							gen.GenerateInto(dest, cfg.Outputs())
							if _, err := q.Cycle(dest); err != nil {
								t.Fatal(err)
							}
							tot := q.Totals()
							if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
								t.Fatalf("cycle %d: conservation broken: %+v queued=%d", cycle, tot, q.Queued())
							}
							if q.Queued() != q.countQueued() {
								t.Fatalf("cycle %d: occupancy counter %d != actual queue contents %d",
									cycle, q.Queued(), q.countQueued())
							}
						}
						tot := q.Totals()
						if pol == Backpressure && tot.Dropped != 0 {
							t.Fatalf("backpressure dropped %d packets", tot.Dropped)
						}
						if depth == Unbounded && tot.Refused != 0 {
							t.Fatalf("unbounded FIFOs refused %d injections", tot.Refused)
						}
						if tot.Delivered == 0 {
							t.Fatal("nothing delivered in 120 loaded cycles")
						}
					})
				}
			}
		}
	}
}

// countQueued recomputes the in-flight packet count from first
// principles, cross-checking the incremental occupancy counter.
func (n *Network) countQueued() int64 {
	var total int64
	if n.opts.Depth == 0 {
		for _, d := range n.pending {
			if d != NoRequest {
				total++
			}
		}
		return total
	}
	for i := range n.fifo.Count() {
		total += int64(n.fifo.Len(i))
	}
	return total
}

// TestZeroLoadLatency pins the latency floors: one lone packet crosses
// the pipelined network in exactly Stages() cycles (one hop per cycle)
// and the unbuffered corner in exactly 1.
func TestZeroLoadLatency(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	for _, depth := range []int{1, 4, Unbounded} {
		q, err := New(cfg, Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			dest[i] = NoRequest
		}
		dest[3] = 7
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Drain(10 * cfg.Stages()); err != nil {
			t.Fatal(err)
		}
		h := q.Latency()
		if h.N() != 1 || h.Min() != float64(cfg.Stages()) || h.Max() != float64(cfg.Stages()) {
			t.Errorf("depth %d: lone-packet latency n=%d min=%g max=%g, want exactly %d",
				depth, h.N(), h.Min(), h.Max(), cfg.Stages())
		}
	}
	q, err := New(cfg, Options{Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	dest[3] = 7
	if _, err := q.Cycle(dest); err != nil {
		t.Fatal(err)
	}
	if h := q.Latency(); h.N() != 1 || h.Max() != 1 {
		t.Errorf("depth 0: lone-packet latency n=%d max=%g, want exactly 1", h.N(), h.Max())
	}
}

// TestBackpressureDeliversEverything: with lossless queues every
// injected-and-accepted packet must eventually retire — the crossbar
// stage always drains, so the network cannot deadlock.
func TestBackpressureDeliversEverything(t *testing.T) {
	for _, depth := range []int{1, 2, Unbounded} {
		cfg := mustCfg(t, 8, 2, 4, 2)
		q, err := New(cfg, Options{Depth: depth, Policy: Backpressure})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(21)
		// A hot-spot load is the adversarial case: everything funnels
		// toward one output and must still drain.
		gen := traffic.HotSpot{Rate: 1, Fraction: 0.5, Hot: 3, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 40; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Drain(100000); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		tot := q.Totals()
		if tot.Dropped != 0 {
			t.Fatalf("depth %d: backpressure dropped %d", depth, tot.Dropped)
		}
		if tot.Delivered != tot.Injected-tot.Refused {
			t.Fatalf("depth %d: delivered %d of %d accepted", depth, tot.Delivered, tot.Injected-tot.Refused)
		}
		if q.Latency().Min() < float64(cfg.Stages()) {
			t.Fatalf("depth %d: latency %g below the pipeline floor %d", depth, q.Latency().Min(), cfg.Stages())
		}
	}
}

// TestDeeperBuffersDeliverMore: under sustained overload, raising the
// FIFO depth must not reduce delivered bandwidth — the queues absorb
// collisions the circuit-switched engine would drop. This is the
// qualitative claim the subsystem exists to quantify.
func TestDeeperBuffersDeliverMore(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	delivered := make(map[int]int64)
	for _, depth := range []int{1, 4, 16} {
		q, err := New(cfg, Options{Depth: depth, Policy: Drop})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(33)
		gen := traffic.Uniform{Rate: 1, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 400; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		delivered[depth] = q.Totals().Delivered
	}
	if delivered[4] < delivered[1] || delivered[16] < delivered[4] {
		t.Errorf("delivered bandwidth should not degrade with depth: %v", delivered)
	}
}

func TestOptionValidation(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 2)
	if _, err := New(cfg, Options{Depth: -2}); err == nil {
		t.Error("depth -2 should be rejected")
	}
	if _, err := New(cfg, Options{Policy: Policy(9)}); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := New(topology.Config{A: 3}, Options{}); err == nil {
		t.Error("invalid topology should be rejected")
	}
	odd := &Fabric{Name: "odd", Label: cfg, Stages: []topology.Stage{{Switches: 2, Width: 3, Buckets: 3, Wires: 1}}}
	if _, err := NewFabric(odd, Options{Depth: 1}); err == nil {
		t.Error("a stage width that is not a power of two should be rejected")
	}
	q, err := New(cfg, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cycle(make([]int, 3)); err == nil {
		t.Error("wrong injection vector length should be rejected")
	}
	bad := make([]int, cfg.Inputs())
	bad[0] = cfg.Outputs()
	if _, err := q.Cycle(bad); err == nil {
		t.Error("out-of-range destination should be rejected")
	}
	q0, err := New(cfg, Options{Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.Cycle(bad); err == nil {
		t.Error("depth-0 out-of-range destination should be rejected")
	}
}

// TestRejectedCycleLeavesStateConsistent pins that a rejected injection
// vector is a no-op: validation happens before any state mutation, so
// the conservation invariant and the clock survive a caller error
// mid-run (a mid-cycle abort would desynchronize Totals from the queue
// contents forever).
func TestRejectedCycleLeavesStateConsistent(t *testing.T) {
	for _, depth := range []int{0, 2} {
		cfg := mustCfg(t, 16, 4, 4, 2)
		q, err := New(cfg, Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(19)
		gen := traffic.Uniform{Rate: 0.8, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 10; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		before, nowBefore, queuedBefore := q.Totals(), q.Now(), q.Queued()
		bad := make([]int, cfg.Inputs())
		bad[cfg.Inputs()-1] = -7 // valid entries first, invalid last
		if _, err := q.Cycle(bad); err == nil {
			t.Fatal("bad vector accepted")
		}
		if q.Totals() != before || q.Now() != nowBefore || q.Queued() != queuedBefore {
			t.Errorf("depth %d: rejected cycle mutated state: totals %+v->%+v now %d->%d queued %d->%d",
				depth, before, q.Totals(), nowBefore, q.Now(), queuedBefore, q.Queued())
		}
		// The network must keep working and conserving afterward.
		for cycle := 0; cycle < 10; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
			tot := q.Totals()
			if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
				t.Fatalf("depth %d: conservation broken after rejected cycle: %+v queued=%d", depth, tot, q.Queued())
			}
		}
	}
}

// TestCycleAllocationFree pins the acceptance criterion at the unit
// level: a bounded-depth steady-state cycle performs zero allocations
// (the benchmark BenchmarkQueueCycle tracks the same property at 1K/4K
// ports with -benchmem).
func TestCycleAllocationFree(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	q, err := New(cfg, Options{Depth: 4, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	gen := traffic.Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, cfg.Inputs())
	// Warm into steady state.
	for cycle := 0; cycle < 50; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRefusalAccounting: a bounded depth-1 backpressure network under
// full load must refuse injections (the stage-1 FIFOs stay occupied)
// and count them.
func TestRefusalAccounting(t *testing.T) {
	cfg := mustCfg(t, 8, 2, 4, 2)
	q, err := New(cfg, Options{Depth: 1, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(14)
	gen := traffic.Uniform{Rate: 1, Rng: rng}
	dest := make([]int, cfg.Inputs())
	for cycle := 0; cycle < 100; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	tot := q.Totals()
	if tot.Refused == 0 {
		t.Error("full load against depth-1 backpressure should refuse some injections")
	}
	if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
		t.Errorf("conservation broken: %+v queued=%d", tot, q.Queued())
	}
}
