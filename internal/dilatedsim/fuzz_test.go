package dilatedsim

import (
	"testing"

	"edn/internal/anatomy"
	"edn/internal/dilated"
	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// fuzzFabric is one geometry FuzzEngineOps can build, on either fabric
// of the shared engine: build returns an engine, pop the population a
// fault sample draws from (given the sample's rng, which an EDN spends
// on its mode first).
type fuzzFabric struct {
	inputs, outputs int
	build           func(t *testing.T, o queuesim.Options) *queuesim.Network
	pop             func(rng *xrand.Rand) faults.Population
}

func ednFabric(a, b, c, l int) fuzzFabric {
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		panic(err)
	}
	return fuzzFabric{
		inputs: cfg.Inputs(), outputs: cfg.Outputs(),
		build: func(t *testing.T, o queuesim.Options) *queuesim.Network {
			n, err := queuesim.New(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
		pop: func(rng *xrand.Rand) faults.Population { return faults.ModePopulation(cfg, faults.Mode(rng.Intn(3))) },
	}
}

func dilatedFabric(b, d, l int) fuzzFabric {
	cfg, err := dilated.New(b, d, l)
	if err != nil {
		panic(err)
	}
	return fuzzFabric{
		inputs: cfg.Ports(), outputs: cfg.Ports(),
		build: func(t *testing.T, o queuesim.Options) *queuesim.Network {
			n, err := New(cfg, Options{Depth: o.Depth, Policy: o.Policy, Factory: o.Factory})
			if err != nil {
				t.Fatal(err)
			}
			return n.Network
		},
		pop: func(*xrand.Rand) faults.Population { return SubWires(cfg) },
	}
}

var fuzzFabrics = []fuzzFabric{
	ednFabric(4, 2, 2, 2),
	ednFabric(8, 4, 2, 2),
	ednFabric(2, 2, 1, 3), // the delta corner: pinned paths
	ednFabric(4, 4, 4, 1),
	dilatedFabric(2, 2, 2),
	dilatedFabric(4, 2, 2),
	dilatedFabric(2, 1, 3),
	dilatedFabric(2, 4, 2),
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func fuzzFactory(kind int) switchfab.ArbiterFactory {
	switch kind % 3 {
	case 1:
		return func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
	case 2:
		rng := xrand.New(5) // one stream per engine: twins draw identically
		return func() switchfab.Arbiter { return switchfab.RandomArbiter{Perm: rng.PermInto} }
	}
	return nil
}

// FuzzEngineOps drives random interleavings of the engine's operations
// — Cycle, UpdateFaults (random or nil masks), Drain and probe
// attach/detach — on a random fabric, depth, policy and arbiter. The
// observed engine (probe attached and detached by the fuzz input,
// anatomy attached from cycle 0 or never, since its FIFO mirrors must
// see every injection) runs beside an unobserved twin. After every
// operation both packet ledgers must conserve and the two engines must
// agree on CycleStats, Totals and occupancy.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 200, 1, 1, 180, 2, 4, 40, 7, 2, 220, 3, 6, 2, 1, 150, 4, 0, 0, 1, 99, 5, 20, 7, 0, 255, 9})
	f.Add([]byte{4, 1, 1, 1, 0, 0, 230, 5, 4, 30, 11, 1, 240, 6, 6, 1, 2, 250, 8, 5, 16, 4, 4, 0, 210, 1, 5, 30})
	f.Add([]byte{2, 2, 0, 2, 1, 4, 50, 3, 0, 255, 1, 3, 255, 2, 6, 3, 0, 128, 4, 7, 1, 200, 3, 5, 8})
	f.Add([]byte{6, 3, 1, 0, 1, 0, 255, 1, 4, 60, 2, 0, 255, 3, 1, 255, 4, 5, 31, 4, 0, 0, 160, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		fab := fuzzFabrics[in.next()%len(fuzzFabrics)]
		opts := queuesim.Options{
			Depth:  []int{0, 1, 4, queuesim.Unbounded}[in.next()%4],
			Policy: queuesim.Policy(in.next() % 2),
		}
		arb := in.next()
		opts.Factory = fuzzFactory(arb)
		obs := fab.build(t, opts)
		opts.Factory = fuzzFactory(arb)
		twin := fab.build(t, opts)
		if in.next()%2 == 1 {
			obs.SetAnatomy(anatomy.New(anatomy.Options{TopK: 4}))
		}
		check := func(op string) {
			t.Helper()
			for _, n := range []*queuesim.Network{obs, twin} {
				tot := n.Totals()
				if got := tot.Refused + tot.Delivered + tot.Dropped + tot.Stranded + n.Queued(); got != tot.Injected {
					t.Fatalf("after %s: ledger broken: injected %d != %d (%+v, queued %d)", op, tot.Injected, got, tot, n.Queued())
				}
			}
			if obs.Totals() != twin.Totals() || obs.Queued() != twin.Queued() || obs.Now() != twin.Now() {
				t.Fatalf("after %s: observed %+v (queued %d) vs twin %+v (queued %d)", op, obs.Totals(), obs.Queued(), twin.Totals(), twin.Queued())
			}
		}
		check("construction")
		dest := make([]int, fab.inputs)
		for ops := 0; ops < 64 && len(in) > 0; ops++ {
			switch op := in.next() % 8; {
			case op < 4:
				rate, rng := in.next(), xrand.New(uint64(in.next()))
				spread := fab.outputs
				if op == 3 {
					spread = 2 // a hot spot: every offer aims at terminal 0 or 1
				}
				for i := range dest {
					dest[i] = queuesim.NoRequest
					if rng.Intn(256) < rate {
						dest[i] = rng.Intn(spread)
					}
				}
				a, errA := obs.Cycle(dest)
				b, errB := twin.Cycle(dest)
				if errA != nil || errB != nil || a != b {
					t.Fatalf("cycle: observed %+v (%v) vs twin %+v (%v)", a, errA, b, errB)
				}
				check("Cycle")
			case op == 4:
				var m *faults.Masks
				if sel := in.next(); sel%4 != 0 {
					rng := xrand.New(uint64(in.next()))
					var err error
					if m, err = obs.CompileFaults(fab.pop(rng).Bernoulli(float64(sel%64)/128, rng)); err != nil {
						t.Fatal(err)
					}
				}
				errA, errB := obs.UpdateFaults(m), twin.UpdateFaults(m)
				if errA != nil || errB != nil {
					t.Fatalf("UpdateFaults: %v / %v", errA, errB)
				}
				check("UpdateFaults")
			case op == 5:
				limit := in.next()%32 + 1
				ca, errA := obs.Drain(limit)
				cb, errB := twin.Drain(limit)
				if ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("Drain(%d): observed %d (%v) vs twin %d (%v)", limit, ca, errA, cb, errB)
				}
				check("Drain")
			case op == 6:
				obs.SetProbe(probe.New(probe.Options{SampleEvery: in.next()%4 + 1, TraceCap: 16, MaxHops: 6, Bins: 4, BinCycles: 8}))
				check("SetProbe")
			default:
				obs.SetProbe(nil)
				check("SetProbe(nil)")
			}
		}
		la, lb := obs.Latency(), twin.Latency()
		if la.N() != lb.N() || la.Mean() != lb.Mean() || la.Max() != lb.Max() {
			t.Fatalf("latency: observed n=%d mean=%g vs twin n=%d mean=%g", la.N(), la.Mean(), lb.N(), lb.Mean())
		}
	})
}
