package edn

import (
	"fmt"
	"testing"

	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// This file pins the table-driven engine to the original (pre-table)
// RouteCycle semantics. referenceEngine is a line-for-line transcription
// of the seed implementation — per-cycle slice allocation, per-stage
// digit division, interface-dispatched gamma application, allocating
// switch arbitration — and the equivalence suite asserts bit-identical
// Outcomes and CycleStats between it, RouteCycleInto and the RouteCycle
// wrapper, across geometries, request loads, seeds and every arbiter
// factory.

type referenceEngine struct {
	cfg     topology.Config
	factory switchfab.ArbiterFactory
	arbs    [][]switchfab.Arbiter
}

func newReferenceEngine(cfg topology.Config, factory switchfab.ArbiterFactory) *referenceEngine {
	if factory == nil {
		factory = switchfab.PriorityArbiters
	}
	arbs := make([][]switchfab.Arbiter, cfg.Stages())
	for s := 1; s <= cfg.Stages(); s++ {
		arbs[s-1] = make([]switchfab.Arbiter, cfg.SwitchesInStage(s))
	}
	return &referenceEngine{cfg: cfg, factory: factory, arbs: arbs}
}

// arbiter reproduces the seed's lazy busy-switch-only instantiation, so
// stateful factories observe the same call sequence as the live engine.
func (e *referenceEngine) arbiter(stage, sw int) switchfab.Arbiter {
	if e.arbs[stage-1][sw] == nil {
		e.arbs[stage-1][sw] = e.factory()
	}
	return e.arbs[stage-1][sw]
}

// refDigitAt is the seed's digitAt: base-b digit of positional weight
// b^idx, by repeated division.
func refDigitAt(v, b, idx int) int {
	for ; idx > 0; idx-- {
		v /= b
	}
	return v % b
}

func (e *referenceEngine) routeCycle(dest []int) ([]Outcome, CycleStats, error) {
	cfg := e.cfg
	if len(dest) != cfg.Inputs() {
		return nil, CycleStats{}, fmt.Errorf("core: %v got %d requests, want %d inputs", cfg, len(dest), cfg.Inputs())
	}
	outcomes := make([]Outcome, len(dest))
	stats := CycleStats{Blocked: make([]int, cfg.Stages())}
	line := make([]int, len(dest))
	for i, d := range dest {
		if d == NoRequest {
			line[i] = NoRequest
			outcomes[i] = Outcome{Output: NoRequest}
			continue
		}
		if d < 0 || d >= cfg.Outputs() {
			return nil, CycleStats{}, fmt.Errorf("core: input %d requests output %d out of range [0,%d)", i, d, cfg.Outputs())
		}
		line[i] = i
		stats.Offered++
	}

	maxW := cfg.Inputs()
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > maxW {
			maxW = w
		}
	}
	lineOwner := make([]int, maxW)
	resetOwners := func(wires int) {
		for i := 0; i < wires; i++ {
			lineOwner[i] = NoRequest
		}
	}

	hb := cfg.Hyperbar()
	xb := cfg.OutputCrossbar()
	digits := make([]int, cfg.A)

	for s := 1; s <= cfg.L; s++ {
		resetOwners(cfg.WiresAfterStage(s - 1))
		for i, ln := range line {
			if ln != NoRequest {
				lineOwner[ln] = i
			}
		}
		g := cfg.InterstageGamma(s)
		for sw := 0; sw < cfg.SwitchesInStage(s); sw++ {
			base := sw * cfg.A
			busy := false
			for p := 0; p < cfg.A; p++ {
				owner := lineOwner[base+p]
				if owner == NoRequest {
					digits[p] = switchfab.Idle
					continue
				}
				busy = true
				digits[p] = refDigitAt(dest[owner]/cfg.C, cfg.B, cfg.L-s)
			}
			if !busy {
				continue
			}
			grants, _, err := hb.Route(digits[:cfg.A], e.arbiter(s, sw))
			if err != nil {
				return nil, CycleStats{}, fmt.Errorf("core: stage %d switch %d: %w", s, sw, err)
			}
			for p, o := range grants {
				owner := lineOwner[base+p]
				if owner == NoRequest {
					continue
				}
				if o == switchfab.Idle {
					line[owner] = NoRequest
					outcomes[owner] = Outcome{Output: NoRequest, BlockedStage: s}
					stats.Blocked[s-1]++
					continue
				}
				line[owner] = g.Apply(sw*(cfg.B*cfg.C) + o)
			}
		}
	}

	resetOwners(cfg.WiresAfterStage(cfg.L))
	for i, ln := range line {
		if ln != NoRequest {
			lineOwner[ln] = i
		}
	}
	lastStage := cfg.L + 1
	for sw := 0; sw < cfg.SwitchesInStage(lastStage); sw++ {
		base := sw * cfg.C
		busy := false
		for p := 0; p < cfg.C; p++ {
			owner := lineOwner[base+p]
			if owner == NoRequest {
				digits[p] = switchfab.Idle
				continue
			}
			busy = true
			digits[p] = dest[owner] % cfg.C
		}
		if !busy {
			continue
		}
		grants, _, err := xb.Route(digits[:cfg.C], e.arbiter(lastStage, sw))
		if err != nil {
			return nil, CycleStats{}, fmt.Errorf("core: crossbar %d: %w", sw, err)
		}
		for p, o := range grants {
			owner := lineOwner[base+p]
			if owner == NoRequest {
				continue
			}
			if o == switchfab.Idle {
				outcomes[owner] = Outcome{Output: NoRequest, BlockedStage: lastStage}
				stats.Blocked[lastStage-1]++
				continue
			}
			outcomes[owner] = Outcome{Output: base + o}
			stats.Delivered++
		}
	}
	return outcomes, stats, nil
}

// factoryCase builds one independent arbiter factory per engine so that
// stateful arbiters advance through identical streams in every engine.
type factoryCase struct {
	name string
	make func(seed uint64) switchfab.ArbiterFactory
}

func equivalenceFactories() []factoryCase {
	return []factoryCase{
		{name: "default-priority", make: func(uint64) switchfab.ArbiterFactory { return nil }},
		{name: "explicit-priority", make: func(uint64) switchfab.ArbiterFactory { return switchfab.PriorityArbiters }},
		{name: "round-robin", make: func(uint64) switchfab.ArbiterFactory {
			return func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
		}},
		{name: "random", make: func(seed uint64) switchfab.ArbiterFactory {
			rng := xrand.New(seed)
			return func() switchfab.Arbiter { return switchfab.RandomArbiter{Perm: rng.PermInto} }
		}},
	}
}

var equivalenceConfigs = [][4]int{
	{4, 2, 2, 1},   // single hyperbar stage: identity interstage only
	{8, 8, 1, 2},   // classical delta (c=1)
	{8, 4, 2, 2},   // square EDN
	{16, 4, 4, 2},  // square EDN, wider buckets
	{64, 16, 4, 2}, // the MasPar geometry, 1K ports
	{4, 4, 2, 2},   // expander: more outputs than inputs
	{16, 4, 2, 2},  // concentrator: more inputs than outputs
	{8, 2, 4, 3},   // deep, narrow buckets
}

func TestRouteCycleEquivalence(t *testing.T) {
	for _, dims := range equivalenceConfigs {
		cfg, err := topology.New(dims[0], dims[1], dims[2], dims[3])
		if err != nil {
			t.Fatal(err)
		}
		for _, fc := range equivalenceFactories() {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed%d", cfg, fc.name, seed), func(t *testing.T) {
					ref := newReferenceEngine(cfg, fc.make(seed))
					into, err := NewNetwork(cfg, fc.make(seed))
					if err != nil {
						t.Fatal(err)
					}
					wrapper, err := NewNetwork(cfg, fc.make(seed))
					if err != nil {
						t.Fatal(err)
					}

					trafficRng := xrand.New(seed * 977)
					dest := make([]int, cfg.Inputs())
					intoOut := make([]Outcome, cfg.Inputs())
					rates := []float64{0, 0.25, 0.6, 1}
					for trial := 0; trial < 12; trial++ {
						rate := rates[trial%len(rates)]
						for i := range dest {
							if trafficRng.Bool(rate) {
								dest[i] = trafficRng.Intn(cfg.Outputs())
							} else {
								dest[i] = NoRequest
							}
						}
						wantOut, wantStats, err := ref.routeCycle(dest)
						if err != nil {
							t.Fatal(err)
						}

						// Dirty the reused outcome buffers to prove every
						// slot is rewritten each cycle.
						for i := range intoOut {
							intoOut[i] = Outcome{Output: -99, BlockedStage: -99}
						}
						gotStats, err := into.RouteCycleInto(dest, intoOut)
						if err != nil {
							t.Fatal(err)
						}
						compareCycle(t, trial, "RouteCycleInto", wantOut, wantStats, intoOut, gotStats)

						wOut, wStats, err := wrapper.RouteCycle(dest)
						if err != nil {
							t.Fatal(err)
						}
						compareCycle(t, trial, "RouteCycle", wantOut, wantStats, wOut, wStats)
					}
				})
			}
		}
	}
}

func compareCycle(t *testing.T, trial int, engine string, wantOut []Outcome, wantStats CycleStats, gotOut []Outcome, gotStats CycleStats) {
	t.Helper()
	if gotStats.Offered != wantStats.Offered || gotStats.Delivered != wantStats.Delivered {
		t.Fatalf("trial %d %s: offered/delivered %d/%d, want %d/%d",
			trial, engine, gotStats.Offered, gotStats.Delivered, wantStats.Offered, wantStats.Delivered)
	}
	if len(gotStats.Blocked) != len(wantStats.Blocked) {
		t.Fatalf("trial %d %s: %d blocked stages, want %d", trial, engine, len(gotStats.Blocked), len(wantStats.Blocked))
	}
	for s := range wantStats.Blocked {
		if gotStats.Blocked[s] != wantStats.Blocked[s] {
			t.Fatalf("trial %d %s: stage %d blocked %d, want %d",
				trial, engine, s+1, gotStats.Blocked[s], wantStats.Blocked[s])
		}
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("trial %d %s: input %d outcome %+v, want %+v", trial, engine, i, gotOut[i], wantOut[i])
		}
	}
}

// TestRouteCycleIntoZeroAlloc pins the headline property: a steady-state
// RouteCycleInto cycle performs no allocations, under both the fused
// default-priority kernel and the generic in-place arbiter path.
func TestRouteCycleIntoZeroAlloc(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]switchfab.ArbiterFactory{
		"default-priority": nil,
		"round-robin":      func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} },
	}
	for name, factory := range factories {
		net, err := NewNetwork(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(9)
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			dest[i] = rng.Intn(cfg.Outputs())
		}
		outcomes := make([]Outcome, cfg.Inputs())
		if _, err := net.RouteCycleInto(dest, outcomes); err != nil {
			t.Fatal(err) // warm-up instantiates the lazy arbiters
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := net.RouteCycleInto(dest, outcomes); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RouteCycleInto allocated %.1f objects per cycle, want 0", name, allocs)
		}
	}
}

// TestRouteCycleIntoValidation covers the error paths of the Into entry
// point, which must reject bad geometry without touching caller state.
func TestRouteCycleIntoValidation(t *testing.T) {
	cfg, err := topology.New(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int, cfg.Inputs())
	outcomes := make([]Outcome, cfg.Inputs())
	if _, err := net.RouteCycleInto(good[:3], outcomes); err == nil {
		t.Fatal("short dest accepted")
	}
	if _, err := net.RouteCycleInto(good, outcomes[:3]); err == nil {
		t.Fatal("short outcomes accepted")
	}
	good[0] = cfg.Outputs()
	if _, err := net.RouteCycleInto(good, outcomes); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	good[0] = -7
	if _, err := net.RouteCycleInto(good, outcomes); err == nil {
		t.Fatal("negative destination accepted")
	}
}
