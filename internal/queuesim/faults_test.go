package queuesim

import (
	"fmt"
	"testing"

	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// interiorFaults samples faults that leave the inputs and outputs
// intact: interstage wires plus interior (stage 2..l) switches.
// Backpressure tests use it so no packet can get parked forever behind
// a dead terminal.
func interiorFaults(cfg topology.Config, p float64, seed uint64) faults.Set {
	rng := xrand.New(seed)
	set := faults.Bernoulli(cfg, faults.WireFaults, p, rng)
	for s := 2; s <= cfg.L; s++ {
		for sw := 0; sw < cfg.SwitchesInStage(s); sw++ {
			if rng.Bool(p / 2) {
				set.Switches = append(set.Switches, faults.SwitchID{Stage: s, Switch: sw})
			}
		}
	}
	return set
}

// TestEmptyMaskQueueEquivalence: a queueing network built with an empty
// fault mask must match the unfaulted network cycle for cycle — same
// CycleStats, same totals, same latency histogram — across depths and
// policies.
func TestEmptyMaskQueueEquivalence(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	empty, err := faults.Compile(cfg, faults.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 1, 4, Unbounded} {
		for _, policy := range []Policy{Backpressure, Drop} {
			t.Run(fmt.Sprintf("depth=%d/%v", depth, policy), func(t *testing.T) {
				ref, err := New(cfg, Options{Depth: depth, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				got, err := New(cfg, Options{Depth: depth, Policy: policy, Faults: empty})
				if err != nil {
					t.Fatal(err)
				}
				gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(21)}
				dest := make([]int, cfg.Inputs())
				for cycle := 0; cycle < 60; cycle++ {
					gen.GenerateInto(dest, cfg.Outputs())
					rcs, err := ref.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					gcs, err := got.Cycle(dest)
					if err != nil {
						t.Fatal(err)
					}
					if rcs != gcs {
						t.Fatalf("cycle %d: stats diverge: %+v vs %+v", cycle, rcs, gcs)
					}
				}
				if ref.Totals() != got.Totals() {
					t.Fatalf("totals diverge: %+v vs %+v", ref.Totals(), got.Totals())
				}
				if ref.Queued() != got.Queued() {
					t.Fatalf("queued diverge: %d vs %d", ref.Queued(), got.Queued())
				}
				rq, gq := ref.Latency(), got.Latency()
				if rq.N() != gq.N() || rq.Mean() != gq.Mean() || rq.Max() != gq.Max() {
					t.Fatalf("latency diverges: %d/%g/%g vs %d/%g/%g",
						rq.N(), rq.Mean(), rq.Max(), gq.N(), gq.Mean(), gq.Max())
				}
			})
		}
	}
}

// TestConservationWithFaults: the lifetime invariant
// Injected == Refused + Delivered + Dropped + Queued must survive every
// fault pattern, depth and policy.
func TestConservationWithFaults(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	sets := map[string]faults.Set{
		"interior": interiorFaults(cfg, 0.15, 8),
		"everything": func() faults.Set {
			s := faults.Bernoulli(cfg, faults.MixedFaults, 0.1, xrand.New(9))
			s.Switches = append(s.Switches, faults.SwitchID{Stage: 1, Switch: 0})
			s.Ports = append(s.Ports, faults.PortID{Stage: cfg.L + 1, Switch: 0, Bucket: 0, Wire: 0})
			return s
		}(),
	}
	for name, set := range sets {
		m, err := faults.Compile(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 1, 4, Unbounded} {
			for _, policy := range []Policy{Backpressure, Drop} {
				t.Run(fmt.Sprintf("%s/depth=%d/%v", name, depth, policy), func(t *testing.T) {
					if depth == Unbounded && policy == Backpressure && name == "everything" {
						// Dead terminals park packets forever; unbounded
						// queues then grow without limit. Still conserving,
						// but keep the test fast.
						t.Skip("unbounded backpressure with dead outputs grows forever")
					}
					net, err := New(cfg, Options{Depth: depth, Policy: policy, Faults: m})
					if err != nil {
						t.Fatal(err)
					}
					gen := traffic.Uniform{Rate: 0.8, Rng: xrand.New(31)}
					dest := make([]int, cfg.Inputs())
					for cycle := 0; cycle < 80; cycle++ {
						gen.GenerateInto(dest, cfg.Outputs())
						if _, err := net.Cycle(dest); err != nil {
							t.Fatal(err)
						}
						tot := net.Totals()
						if got := tot.Refused + tot.Delivered + tot.Dropped + net.Queued(); got != tot.Injected {
							t.Fatalf("cycle %d: conservation broken: injected %d != refused %d + delivered %d + dropped %d + queued %d",
								cycle, tot.Injected, tot.Refused, tot.Delivered, tot.Dropped, net.Queued())
						}
					}
				})
			}
		}
	}
}

// TestFullyDeadStageQueueing: a fully dead middle stage delivers
// nothing and panics never; Drop eventually discards everything.
func TestFullyDeadStageQueueing(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	var set faults.Set
	for sw := 0; sw < cfg.SwitchesInStage(2); sw++ {
		set.Switches = append(set.Switches, faults.SwitchID{Stage: 2, Switch: sw})
	}
	m, err := faults.Compile(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{Backpressure, Drop} {
		t.Run(policy.String(), func(t *testing.T) {
			net, err := New(cfg, Options{Depth: 2, Policy: policy, Faults: m})
			if err != nil {
				t.Fatal(err)
			}
			gen := traffic.Uniform{Rate: 1, Rng: xrand.New(6)}
			dest := make([]int, cfg.Inputs())
			for cycle := 0; cycle < 40; cycle++ {
				gen.GenerateInto(dest, cfg.Outputs())
				cs, err := net.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				if cs.Delivered != 0 {
					t.Fatalf("delivered %d through a fully dead stage", cs.Delivered)
				}
			}
			tot := net.Totals()
			if tot.Delivered != 0 {
				t.Fatalf("lifetime delivered %d, want 0", tot.Delivered)
			}
			if policy == Drop && tot.Dropped == 0 {
				t.Fatal("drop policy never dropped anything at the dead stage")
			}
			if policy == Backpressure && tot.Refused == 0 {
				t.Fatal("backpressure never refused despite stage-1 queues jamming against the dead stage")
			}
		})
	}
}

// TestDeadInputsRefused: injections at severed inputs are refused at
// the source in every depth mode, and InputFree reports them dead.
func TestDeadInputsRefused(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	m, err := faults.Compile(cfg, faults.Set{Switches: []faults.SwitchID{{Stage: 1, Switch: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			net, err := New(cfg, Options{Depth: depth, Policy: Drop, Faults: m})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.Inputs(); i++ {
				if free := net.InputFree(i); free != (i >= cfg.A) {
					t.Errorf("InputFree(%d) = %v, want %v", i, free, i >= cfg.A)
				}
			}
			dest := make([]int, cfg.Inputs())
			for i := range dest {
				dest[i] = i % cfg.Outputs()
			}
			cs, err := net.Cycle(dest)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Injected != cfg.Inputs() || cs.Refused != cfg.A {
				t.Fatalf("injected %d refused %d, want %d injected, %d refused",
					cs.Injected, cs.Refused, cfg.Inputs(), cfg.A)
			}
		})
	}
}

// TestVerdictCoversDeadInputRefusals: on a depth-0 Drop network every
// input that offered has a verdict, including one refused at the source
// because its input wire is dead — it reads 1, the stage-1 block, never
// the verdict of that input's previous packet.
func TestVerdictCoversDeadInputRefusals(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 2)
	n, err := New(cfg, Options{Policy: Drop})
	if err != nil {
		t.Fatal(err)
	}
	const in = 1
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	dest[in] = 0
	if _, err := n.Cycle(dest); err != nil {
		t.Fatal(err)
	}
	if v := n.Verdict(in); v != 0 {
		t.Fatalf("lone request: verdict %d, want 0 (delivered)", v)
	}
	m, err := faults.Compile(cfg, faults.Set{Wires: []faults.WireID{{Boundary: 0, Wire: in}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.UpdateFaults(m); err != nil {
		t.Fatal(err)
	}
	cs, err := n.Cycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Refused != 1 {
		t.Fatalf("refused %d, want the dead input's request", cs.Refused)
	}
	if v := n.Verdict(in); v != 1 {
		t.Fatalf("dead input: verdict %d, want 1 (blocked at stage 1)", v)
	}
}
