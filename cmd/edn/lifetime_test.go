package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestLifetimeRunTable(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-epochs", "6", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "4",
		"-warmup", "40", "-shards", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(4,4,2,2)", "thr/input", "deadfrac", "reachable", "lifetime:", "mtbf=10", "mode=wires"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + header + 6 epoch rows + lifetime summary (stranded line
	// only when packets strand; Drop at depth 4 with wire churn may or
	// may not, so allow 9 or 10).
	if got := strings.Count(out, "\n"); got != 9 && got != 10 {
		t.Errorf("expected 9-10 lines, got %d:\n%s", got, out)
	}
}

func TestRunDeterministicTimingAndBlast(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-epochs", "5", "-epoch-cycles", "30", "-mtbf", "8", "-mttr", "2",
		"-timing", "det", "-mode", "switches", "-blast-rate", "0.5", "-blast-radius", "1",
		"-warmup", "20", "-shards", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timing=deterministic") {
		t.Errorf("missing timing in header:\n%s", sb.String())
	}
}

func TestLifetimeRunCSV(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-epochs", "4", "-epoch-cycles", "30", "-warmup", "20", "-shards", "2",
		"-format", "csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header + 4 epoch rows, got %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "epoch,dead_fraction,throughput_per_input") {
		t.Errorf("unexpected csv header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != strings.Count(lines[0], ",") {
			t.Errorf("field count mismatch: %q", line)
		}
	}
}

func TestLifetimeRunJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-epochs", "4", "-epoch-cycles", "30", "-warmup", "20", "-shards", "2",
		"-seed", "9", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 1 || results[0].Lifetime == nil {
		t.Fatalf("want one lifetime result, got %+v", results)
	}
	rep := results[0].Lifetime
	if rep.Config.String() != "EDN(4,4,2,2)" || rep.Epochs != 4 || rep.Shards != 2 {
		t.Errorf("unexpected report shape: %+v", rep)
	}
	if rep.LifetimeBandwidth <= 0 {
		t.Errorf("lifetime bandwidth %g", rep.LifetimeBandwidth)
	}
	if rep.Injected != rep.Refused+rep.Delivered+rep.Dropped+rep.Stranded &&
		rep.Injected < rep.Refused+rep.Delivered+rep.Dropped+rep.Stranded {
		t.Errorf("conservation violated: %+v", rep)
	}
}

func TestLifetimeRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-epochs", "0"},
		{"-mtbf", "0.5"},
		{"-load", "2"},
		{"-load", "NaN"},
		{"-threshold", "NaN"},
		{"-timing", "sometimes"},
		{"-mode", "gremlins"},
		{"-policy", "hope"},
		{"-format", "yaml"},
	} {
		var sb strings.Builder
		if err := runCmd("lifetime", args, &sb); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestLifetimeRunDilatedComparison(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-epochs", "5", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "4",
		"-warmup", "20", "-shards", "2", "-dilated"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dilated counterpart 2-dilated delta(b=4,l=2)",
		"dil-thr/in", "dil-p99", "dilated lifetime: thr=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLifetimeRunDilatedJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("lifetime", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-epochs", "4", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "4",
		"-warmup", "20", "-shards", "2", "-dilated", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 2 || results[1].Lifetime == nil || results[1].Lifetime.LifetimeBandwidth <= 0 {
		t.Fatalf("dilated lifetime result missing or empty: %s", sb.String())
	}
	if got, want := results[1].Lifetime.Network(), "2-dilated delta(b=4,l=2)"; got != want {
		t.Fatalf("second document measures %q, want the counterpart %q", got, want)
	}
	// Every epoch carries the counterpart's measurement, under the one
	// lifetime key and labelled by its dilated configuration.
	var series struct {
		Lifetime struct {
			Dilated struct {
				D int
			}
			Bandwidth struct {
				Means []float64 `json:"means"`
			}
		} `json:"lifetime"`
	}
	if err := json.Unmarshal(jsonDocs(t, sb.String())[1], &series); err != nil {
		t.Fatal(err)
	}
	if series.Lifetime.Dilated.D != 2 {
		t.Fatalf("dilated lifetime JSON carries dilation %d, want 2", series.Lifetime.Dilated.D)
	}
	if got := len(series.Lifetime.Bandwidth.Means); got != 4 {
		t.Fatalf("dilated series covers %d of 4 epochs", got)
	}
}

// TestRunDilatedDeterministic: the paired lifetime is reproducible per
// (seed, shards).
func TestLifetimeRunDilatedDeterministic(t *testing.T) {
	args := []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-epochs", "4", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "4",
		"-warmup", "20", "-shards", "2", "-dilated", "-seed", "7", "-format", "csv"}
	var a, b strings.Builder
	if err := runCmd("lifetime", args, &a); err != nil {
		t.Fatal(err)
	}
	if err := runCmd("lifetime", args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different output:\n%s\nvs\n%s", a.String(), b.String())
	}
}
