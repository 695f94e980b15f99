package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSweepTable(t *testing.T) {
	var sb strings.Builder
	err := runCmd("loop", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-rates", "0.3,0.6", "-cycles", "400", "-warmup", "50", "-shards", "2",
		"-dilated"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(4,2,2,2)", "closed loop", "goodput", "sla", "retries", "dil-goodput", "dilated counterpart"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + dilated header + column header + 2 rate rows.
	if got := strings.Count(out, "\n"); got != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", got, out)
	}
}

func TestRunSweepCSVAndJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("loop", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-rates", "0.4", "-cycles", "300", "-warmup", "50", "-shards", "2",
		"-retry", "immediate", "-format", "csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 rate row, got %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "rate,offered_per_source,goodput_per_source") {
		t.Errorf("unexpected csv header %q", lines[0])
	}

	sb.Reset()
	err = runCmd("loop", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-rates", "0.4", "-cycles", "300", "-warmup", "50", "-shards", "2",
		"-sla-deadline", "48", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 1 || len(results[0].ClosedLoop) != 1 || results[0].ClosedLoop[0].Config.String() != "EDN(4,2,2,2)" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if p := results[0].ClosedLoop[0]; p.Goodput <= 0 || p.SLAAttainment <= 0 || p.SLAAttainment > 1 {
		t.Errorf("implausible point: %+v", p)
	}
}

func TestRunLifetime(t *testing.T) {
	var sb strings.Builder
	err := runCmd("loop", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-lifetime", "-epochs", "5", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "3",
		"-repair-window", "2", "-rate", "0.4", "-warmup", "40", "-shards", "2",
		"-dilated"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"closed loop lifetime", "repair-window=2", "downtime-cost=", "dilated lifetime:", "deadfrac", "goodput"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + dilated header + column header + 5 epoch rows + 2 summaries.
	if got := strings.Count(out, "\n"); got != 10 {
		t.Errorf("expected 10 lines, got %d:\n%s", got, out)
	}
}

func TestRunLifetimeJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("loop", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-lifetime", "-epochs", "4", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "3",
		"-rate", "0.4", "-warmup", "40", "-shards", "1", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 1 || results[0].ClosedLoopLifetime == nil {
		t.Fatalf("want one closed-loop lifetime result, got %+v", results)
	}
	var series struct {
		ClosedLoopLifetime struct {
			DeadFraction struct {
				Means []float64 `json:"means"`
			}
		} `json:"closedloop_lifetime"`
	}
	if err := json.Unmarshal(jsonDocs(t, sb.String())[0], &series); err != nil {
		t.Fatal(err)
	}
	if got := len(series.ClosedLoopLifetime.DeadFraction.Means); got != 4 {
		t.Fatalf("want 4 epochs, got %d", got)
	}
	if cost := results[0].ClosedLoopLifetime.CostOfDowntime; cost < 0 || cost >= 1 {
		t.Errorf("cost of downtime %g outside [0,1)", cost)
	}
}

func TestLoopRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-a", "3", "-b", "2", "-c", "2", "-l", "2"},          // invalid geometry
		{"-retry", "never"},                                   // unknown retry policy
		{"-rates", "1.5"},                                     // rate out of range
		{"-format", "xml", "-rates", "0.4", "-cycles", "100"}, // unknown format
		{"-lifetime", "-epochs", "0"},                         // zero epochs
		{"-lifetime", "-repair-window", "-2", "-epochs", "3"}, // negative window
		{"-lifetime", "-rate", "1.5", "-epochs", "3"},         // demand above 1
		{"-lifetime", "-rate", "NaN", "-epochs", "3"},         // NaN demand
	} {
		var sb strings.Builder
		if err := runCmd("loop", args, &sb); err == nil {
			t.Errorf("args %v should have failed", args)
		}
	}
}
