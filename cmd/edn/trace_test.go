package main

import (
	"encoding/json"
	"strings"
	"testing"
)

var baseArgs = []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
	"-cycles", "400", "-warmup", "100", "-sample", "4"}

func runTrace(t *testing.T, extra ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := runCmd("trace", append(append([]string{}, baseArgs...), extra...), &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunSummaryAllEngines(t *testing.T) {
	for _, engine := range []string{"core", "edn", "dilated", "loop"} {
		t.Run(engine, func(t *testing.T) {
			out := runTrace(t, "-engine", engine, "-load", "0.5")
			for _, want := range []string{"engine=" + engine, "probe: sampled=", "stage"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunCohortTable(t *testing.T) {
	out := runTrace(t, "-load", "0.9")
	if !strings.Contains(out, "cohort breakdown") {
		t.Fatalf("missing cohort breakdown:\n%s", out)
	}
	if !strings.Contains(out, "med-stall") || !strings.Contains(out, "p99-stall") {
		t.Errorf("missing cohort columns:\n%s", out)
	}
}

func TestRunHeatmap(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-heatmap")
	if !strings.Contains(out, "heat occupancy") {
		t.Errorf("missing heat rows:\n%s", out)
	}
}

func TestRunDump(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-dump")
	if !strings.Contains(out, "trace ") || !strings.Contains(out, "inject=") {
		t.Errorf("missing trace headers:\n%s", out)
	}
	if !strings.Contains(out, "deliver") {
		t.Errorf("missing terminal hop lines:\n%s", out)
	}
}

// TestTraceRunJSON: -format json prints the trace's JobResult, a
// one-shard latency job whose one point carries the probe report.
func TestTraceRunJSON(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-format", "json")
	var res struct {
		Spec struct {
			Mode  string  `json:"mode"`
			Load  float64 `json:"load"`
			Probe struct {
				SampleEvery int `json:"sample_every"`
			} `json:"probe"`
			Sim struct {
				Shards int `json:"shards"`
			} `json:"sim"`
		} `json:"spec"`
		Points []struct {
			Config   struct{ A int }
			Cycles   int
			Observed struct {
				Sampled int64 `json:"sampled"`
				Traces  []struct {
					ID   int64 `json:"id"`
					Hops []struct {
						Event string `json:"event"`
					} `json:"hops"`
				} `json:"traces"`
			}
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if res.Spec.Mode != "latency" || res.Spec.Load != 0.9 || res.Spec.Probe.SampleEvery != 4 || res.Spec.Sim.Shards != 1 {
		t.Fatalf("unexpected spec: %+v", res.Spec)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.Config.A != 16 || p.Cycles != 400 || p.Observed.Sampled == 0 || len(p.Observed.Traces) == 0 {
		t.Fatalf("unexpected point: %+v", p)
	}
	if p.Observed.Traces[0].Hops[0].Event != "inject" {
		t.Errorf("first hop should be inject: %+v", p.Observed.Traces[0])
	}
}

// TestTraceJSONReportsEffectiveSeed: -seed 0 runs every stream from
// seed 1, so its JobResult, the spec's seed included, is -seed 1's
// byte for byte.
func TestTraceJSONReportsEffectiveSeed(t *testing.T) {
	for _, engine := range []string{"core", "edn", "dilated", "loop"} {
		t.Run(engine, func(t *testing.T) {
			zero := runTrace(t, "-engine", engine, "-format", "json", "-seed", "0")
			one := runTrace(t, "-engine", engine, "-format", "json", "-seed", "1")
			if zero != one {
				t.Fatalf("-seed 0 and -seed 1 print different documents:\n--- seed 0\n%s\n--- seed 1\n%s", zero, one)
			}
			if !strings.Contains(one, `"seed": 1,`) {
				t.Fatalf("document does not report seed 1:\n%s", one)
			}
		})
	}
}

func TestRunExportProm(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-export", "prom")
	for _, want := range []string{
		"# TYPE edn_trace_sampled_total counter",
		`engine="edn"`,
		"edn_heat_stage_mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom export missing %q:\n%s", want, out)
		}
	}
}

func TestRunExportJSONL(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-export", "jsonl")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		var m struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if m.Name == "" {
			t.Fatalf("unnamed metric in %q", line)
		}
	}
}

func TestTraceRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("trace", []string{"-engine", "warp"}, &sb); err == nil {
		t.Error("unknown engine should error")
	}
	if err := runCmd("trace", []string{"-export", "xml"}, &sb); err == nil {
		t.Error("unknown export should error")
	}
}

// TestTraceCoreIsDepth0Drop: `-engine core` traces the Monte-Carlo PA
// harness's engine, the EDN's depth-0 Drop sweep, whatever -depth and
// -policy say (their defaults here are 4 and backpressure), so in every
// output form its trace is `-engine edn -depth 0 -policy drop`'s with
// the engine label swapped — the same sampled requests, closed at the
// same stages and cycles, in the same heat vocabulary — at every seed,
// 0 included, since both take every stream from max(-seed, 1).
func TestTraceCoreIsDepth0Drop(t *testing.T) {
	relabel := strings.NewReplacer(
		"engine=edn", "engine=core",
		`engine="edn"`, `engine="core"`,
		`"engine": "edn"`, `"engine": "core"`,
		`"engine":"edn"`, `"engine":"core"`,
	)
	for _, extra := range [][]string{
		nil,
		{"-heatmap"},
		{"-dump"},
		{"-explain"},
		{"-format", "csv"},
		{"-format", "json"},
		{"-export", "prom"},
		{"-export", "jsonl"},
		{"-arb", "roundrobin"},
		{"-arb", "random"},
		{"-arb", "random", "-dump"},
		{"-seed", "0"},
		{"-seed", "0", "-arb", "random"},
	} {
		t.Run(strings.Join(append([]string{"default"}, extra...), " "), func(t *testing.T) {
			got := runTrace(t, append([]string{"-engine", "core"}, extra...)...)
			want := runTrace(t, append([]string{"-engine", "edn", "-depth", "0", "-policy", "drop"}, extra...)...)
			if want = relabel.Replace(want); got != want {
				t.Fatalf("core trace differs from the depth-0 drop engine's:\n--- core\n%s\n--- engine\n%s", got, want)
			}
		})
	}
}

// TestTraceRunRejectsNegativeSizes pins that negative probe sizes, a
// negative warmup and a load outside [0,1] are errors, not silent
// substitutions: the probe would quietly take its default sizes, a
// negative warmup never reaches the cycle the probe attaches at, so
// nothing would be sampled, and a load past 1 is no probability. A
// trace is a JobSpec, so the spec's checks cover it.
func TestTraceRunRejectsNegativeSizes(t *testing.T) {
	base := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-cycles", "100"}
	for _, extra := range [][]string{
		{"-warmup", "10", "-trace-cap", "-1"},
		{"-warmup", "10", "-heat-bins", "-2"},
		{"-warmup", "-10"},
		{"-warmup", "10", "-sample", "-3"},
		{"-warmup", "10", "-load", "1.5"},
		{"-warmup", "10", "-load", "1.5", "-engine", "loop"},
		{"-warmup", "10", "-load", "0"},
	} {
		var sb strings.Builder
		if err := runCmd("trace", append(append([]string{}, base...), extra...), &sb); err == nil {
			t.Errorf("trace %v should fail", extra)
		}
	}
}
