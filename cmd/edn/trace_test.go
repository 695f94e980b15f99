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

func TestTraceRunJSON(t *testing.T) {
	out := runTrace(t, "-load", "0.9", "-format", "json")
	var rep struct {
		Network string `json:"network"`
		Sampled int64  `json:"sampled"`
		Traces  []struct {
			ID   int64 `json:"id"`
			Hops []struct {
				Event string `json:"event"`
			} `json:"hops"`
		} `json:"traces"`
		Cohort []struct {
			Stage int `json:"stage"`
		} `json:"cohort"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if rep.Network != "EDN(16,4,4,2)" || rep.Sampled == 0 || len(rep.Traces) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Traces[0].Hops[0].Event != "inject" {
		t.Errorf("first hop should be inject: %+v", rep.Traces[0])
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

// TestTraceCoreIsDepth0Drop: the Monte-Carlo PA harness behind
// `-engine core` runs on the engine's depth-0 Drop sweep, so in every
// output form its trace is that engine's trace with the engine label
// swapped — the same sampled requests, closed at the same stages and
// cycles, in the same heat vocabulary.
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
