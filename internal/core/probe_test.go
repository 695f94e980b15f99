package core

import (
	"testing"

	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// TestProbeTracesMatchOutcomes: with a probe sampling every request,
// each trace closes within its cycle, at the fate RouteCycleInto
// reports for its input — deliver at the crossbar stage on the
// requested output, or drop at the outcome's BlockedStage. The outcome
// buffer is reused across cycles, so a stale outcome from an earlier
// cycle must never leak into a trace. Requests refused at a dead input
// are never sampled.
func TestProbeTracesMatchOutcomes(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := faults.Compile(cfg, faults.Set{
		Wires: []faults.WireID{{Boundary: 0, Wire: 3}, {Boundary: 1, Wire: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetworkWithFaults(cfg, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	p := probe.New(probe.Options{SampleEvery: 1, TraceCap: 1 << 14})
	n.SetProbe(p)
	type sampled struct {
		input int
		want  Outcome
	}
	var expect []sampled
	rng := xrand.New(3)
	dest := make([]int, cfg.Inputs())
	out := make([]Outcome, cfg.Inputs())
	live := m.LiveInputs()
	for cycle := 0; cycle < 40; cycle++ {
		for i := range dest {
			dest[i] = NoRequest
			if rng.Bool(0.8) {
				dest[i] = rng.Intn(cfg.Outputs())
			}
		}
		if _, err := n.RouteCycleInto(dest, out); err != nil {
			t.Fatal(err)
		}
		for i, d := range dest {
			if d != NoRequest && live[i] {
				expect = append(expect, sampled{i, out[i]})
			}
		}
	}
	traces := p.Report().Traces
	if len(traces) != len(expect) {
		t.Fatalf("%d traces, want one per live request (%d)", len(traces), len(expect))
	}
	for k, tr := range traces {
		e := expect[k]
		if tr.Input != e.input || !tr.Done || len(tr.Hops) == 0 {
			t.Fatalf("trace %d: input %d done=%v hops=%d, want a closed trace of input %d", k, tr.Input, tr.Done, len(tr.Hops), e.input)
		}
		last := tr.Hops[len(tr.Hops)-1]
		switch {
		case e.want.Delivered():
			if last.Event != probe.EvDeliver || last.Stage != cfg.Stages() || tr.Dest != e.want.Output {
				t.Fatalf("trace %d (input %d): ends %v at stage %d, want deliver at stage %d on output %d",
					k, e.input, last.Event, last.Stage, cfg.Stages(), e.want.Output)
			}
		default:
			if last.Event != probe.EvDrop || last.Stage != e.want.BlockedStage {
				t.Fatalf("trace %d (input %d): ends %v at stage %d, want drop at stage %d",
					k, e.input, last.Event, last.Stage, e.want.BlockedStage)
			}
		}
	}
}
