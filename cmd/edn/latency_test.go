package main

import (
	"strings"
	"testing"

	"edn"
)

func TestLatencyRunTableSweep(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-loads", "0.2,0.8", "-cycles", "200", "-warmup", "50", "-shards", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(16,4,4,2)", "thr/cycle", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 4 { // header x2 + 2 load rows
		t.Errorf("expected 4 lines, got %d:\n%s", got, out)
	}
}

func TestLatencyRunCSV(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-loads", "0.5", "-cycles", "100", "-warmup", "20", "-shards", "1", "-format", "csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), sb.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Errorf("csv row has %d fields for %d columns", len(row), len(header))
	}
	if header[0] != "load" || !strings.Contains(lines[0], "latency_p99") {
		t.Errorf("unexpected csv header %q", lines[0])
	}
}

func TestLatencyRunJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-loads", "0.3,0.9", "-cycles", "150", "-warmup", "30", "-shards", "2", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 1 || len(results[0].Points) != 2 || results[0].Points[0].Config.String() != "EDN(16,4,4,2)" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if p := results[0].Points[0]; p.Throughput <= 0 || p.LatencyP99 <= 0 {
		t.Errorf("empty measurement: %+v", p)
	}
}

func TestRunEveryTrafficPolicyArb(t *testing.T) {
	for _, traffic := range []string{"uniform", "onoff", "hotspot"} {
		for _, policy := range []string{"backpressure", "drop"} {
			var sb strings.Builder
			err := runCmd("latency", []string{"-a", "8", "-b", "2", "-c", "4", "-l", "2",
				"-loads", "0.5", "-cycles", "60", "-warmup", "10", "-shards", "1",
				"-traffic", traffic, "-policy", policy}, &sb)
			if err != nil {
				t.Errorf("traffic %s policy %s: %v", traffic, policy, err)
			}
		}
	}
	for _, arb := range []string{"priority", "roundrobin", "random"} {
		var sb strings.Builder
		err := runCmd("latency", []string{"-a", "8", "-b", "2", "-c", "4", "-l", "2",
			"-loads", "0.5", "-cycles", "60", "-warmup", "10", "-shards", "1", "-arb", arb}, &sb)
		if err != nil {
			t.Errorf("arb %s: %v", arb, err)
		}
	}
}

func TestRunRandomArbiterSharded(t *testing.T) {
	// The random-arbiter factory is invoked lazily from every shard's
	// goroutine; its shared seed source must be serialized. Run it under
	// the CI race job (-race over this package) with real parallelism.
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "8", "-b", "2", "-c", "4", "-l", "2",
		"-loads", "0.5,0.8", "-cycles", "200", "-warmup", "20", "-shards", "8", "-arb", "random"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDrainMode(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-drain", "4", "-depth", "0"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"closed-loop drain", "measured", "Section 5.1 model"} {
		if !strings.Contains(out, want) {
			t.Errorf("drain output missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-loads", "1.5"},
		{"-loads", ""},
		{"-policy", "teleport"},
		{"-traffic", "fractal"},
		{"-format", "xml"},
		{"-arb", "coinflip"},
		{"-a", "3"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := runCmd("latency", args, &sb); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestLatencyRunDilatedComparison(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-loads", "0.5,1", "-cycles", "200", "-warmup", "50", "-shards", "2",
		"-policy", "drop", "-dilated"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dilated counterpart 2-dilated delta(b=4,l=2)", "dil-thr", "dil-p99", "wires vs EDN"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyRunDilatedJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("latency", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-loads", "1", "-cycles", "150", "-warmup", "30", "-shards", "2",
		"-policy", "drop", "-dilated", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs, two JobResults: the EDN's sweep, then the counterpart's.
	results := jobResults(t, sb.String())
	if len(results) != 2 || results[1].Spec.Engine != edn.EngineDilated {
		t.Fatalf("want the EDN and dilated results, got %+v", results)
	}
	if len(results[1].Points) != len(results[0].Points) {
		t.Fatalf("%d dilated points for %d EDN points", len(results[1].Points), len(results[0].Points))
	}
	for i, p := range results[1].Points {
		if p.Dilated.String() != "2-dilated delta(b=4,l=2)" || p.Dilated.WireCount() == 0 || results[0].Points[i].Config.WireCount() == 0 {
			t.Errorf("point %d: counterpart or wire counts missing: %+v", i, p)
		}
		if p.Throughput <= 0 {
			t.Errorf("point %d dilated throughput %g", i, p.Throughput)
		}
	}
}

// TestRunDilatedDeterministic: the paired sweep is reproducible per
// (seed, shards), the acceptance criterion for the measured comparison.
func TestLatencyRunDilatedDeterministic(t *testing.T) {
	args := []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-loads", "1", "-cycles", "150", "-warmup", "30", "-shards", "2",
		"-policy", "drop", "-dilated", "-seed", "42", "-format", "csv"}
	var a, b strings.Builder
	if err := runCmd("latency", args, &a); err != nil {
		t.Fatal(err)
	}
	if err := runCmd("latency", args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunDilatedRejectsDrain(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("latency", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-drain", "4", "-depth", "0", "-dilated"}, &sb); err == nil {
		t.Error("-dilated with -drain accepted")
	}
}

// TestLatencyRunRejectsHostileInputs pins two inputs that would
// otherwise run and print wrong numbers: a negative warmup (the window
// shrinks but throughput still divides by -cycles) and a NaN load.
func TestLatencyRunRejectsHostileInputs(t *testing.T) {
	base := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-cycles", "50", "-shards", "1", "-format", "csv"}
	for _, extra := range [][]string{
		{"-warmup", "-10", "-loads", "0.5"},
		{"-loads", "0.5,NaN"},
	} {
		var sb strings.Builder
		if err := runCmd("latency", append(append([]string{}, base...), extra...), &sb); err == nil {
			t.Errorf("latency %v ran and printed:\n%s", extra, sb.String())
		}
	}
}

// TestLatencyDrainRejectsTrace pins that a drain cannot take probe
// flags: its result carries no observed report, so a -trace or
// -heatmap would print nothing.
func TestLatencyDrainRejectsTrace(t *testing.T) {
	for _, probe := range [][]string{{"-trace", "2"}, {"-heatmap"}} {
		var sb strings.Builder
		args := append([]string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-drain", "2"}, probe...)
		err := runCmd("latency", args, &sb)
		if err == nil || !strings.Contains(err.Error(), "probe is not supported") {
			t.Errorf("latency %v: want a probe error, got %v; printed:\n%s", args, err, sb.String())
		}
	}
}
