package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestFaultsRunTableSweep(t *testing.T) {
	var sb strings.Builder
	err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-fractions", "0,0.2", "-cycles", "200", "-warmup", "40", "-shards", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(4,4,2,2)", "thr/input", "reachable", "p99", "mode=wires"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 4 { // title + header + 2 fraction rows
		t.Errorf("expected 4 lines, got %d:\n%s", got, out)
	}
	if strings.Contains(out, "model") {
		t.Errorf("table shows the model column without -expected:\n%s", out)
	}
}

func TestRunExpectedColumn(t *testing.T) {
	var sb strings.Builder
	err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-fractions", "0", "-cycles", "100", "-warmup", "20", "-shards", "1", "-expected"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "model") {
		t.Errorf("-expected did not surface the model column:\n%s", sb.String())
	}
}

func TestFaultsRunCSV(t *testing.T) {
	var sb strings.Builder
	err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-fractions", "0.1", "-cycles", "100", "-warmup", "20", "-shards", "1", "-format", "csv"}, &sb)
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
	if header[0] != "fraction" || !strings.Contains(lines[0], "reachable_fraction") {
		t.Errorf("unexpected csv header %q", lines[0])
	}
}

func TestFaultsRunJSON(t *testing.T) {
	var sb strings.Builder
	err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-fractions", "0,0.3", "-cycles", "150", "-warmup", "30", "-shards", "2",
		"-mode", "mixed", "-format", "json", "-expected"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	results := jobResults(t, sb.String())
	if len(results) != 1 || len(results[0].Availability) != 2 {
		t.Fatalf("unexpected results: %+v", results)
	}
	points := results[0].Availability
	if points[0].Config.String() != "EDN(4,4,2,3)" || points[0].Mode.String() != "mixed" {
		t.Errorf("unexpected sweep: %+v", points[0])
	}
	if points[0].Throughput <= 0 || points[0].ReachableFraction != 1 {
		t.Errorf("fault-free point looks wrong: %+v", points[0])
	}
	if points[0].ExpectedThroughput <= 0 {
		t.Errorf("-expected missing from json: %+v", points[0])
	}
	if points[1].Throughput > points[0].Throughput {
		t.Errorf("degradation curve rose: %+v", points)
	}
}

func TestFaultsRunDilatedComparison(t *testing.T) {
	var sb strings.Builder
	err := runCmd("faults", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-fractions", "0,0.2", "-cycles", "100", "-warmup", "20", "-shards", "1",
		"-dilated"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dilated counterpart 4-dilated delta(b=4,l=3)", "dilated", "wires vs EDN"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The counterpart's analytic model is not a job, so it is not in the
	// JobResult: its degradation shows in the CSV column.
	sb.Reset()
	err = runCmd("faults", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-fractions", "0,0.2", "-cycles", "100", "-warmup", "20", "-shards", "1",
		"-dilated", "-format", "csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 fraction rows, got:\n%s", sb.String())
	}
	col := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "dilated_throughput_per_input" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("dilated column missing: %q", lines[0])
	}
	var dil [2]float64
	for i, line := range lines[1:] {
		if dil[i], err = strconv.ParseFloat(strings.Split(line, ",")[col], 64); err != nil {
			t.Fatal(err)
		}
	}
	if dil[0] <= 0 {
		t.Errorf("fault-free dilated throughput missing: %v", dil)
	}
	if dil[1] >= dil[0] {
		t.Errorf("dilated model did not degrade: %v", dil)
	}

	// No dilated column without the flag (already covered for table by
	// TestFaultsRunTableSweep's line count; check json omits the field).
	sb.Reset()
	if err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-fractions", "0", "-cycles", "60", "-warmup", "10", "-shards", "1",
		"-format", "json"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "dilated") {
		t.Errorf("json shows dilated fields without -dilated:\n%s", sb.String())
	}
}

func TestRunEveryModePolicyArb(t *testing.T) {
	for _, mode := range []string{"wires", "switches", "mixed"} {
		for _, policy := range []string{"drop", "backpressure"} {
			var sb strings.Builder
			err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
				"-fractions", "0.1", "-cycles", "60", "-warmup", "10", "-shards", "1",
				"-mode", mode, "-policy", policy}, &sb)
			if err != nil {
				t.Errorf("mode %s policy %s: %v", mode, policy, err)
			}
		}
	}
	for _, arb := range []string{"priority", "roundrobin", "random"} {
		var sb strings.Builder
		err := runCmd("faults", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "2",
			"-fractions", "0.1", "-cycles", "60", "-warmup", "10", "-shards", "1", "-arb", arb}, &sb)
		if err != nil {
			t.Errorf("arb %s: %v", arb, err)
		}
	}
}

func TestRunShardedDeterminism(t *testing.T) {
	var a, b strings.Builder
	args := []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3",
		"-fractions", "0,0.1,0.3", "-cycles", "300", "-warmup", "60", "-shards", "4", "-format", "csv"}
	if err := runCmd("faults", args, &a); err != nil {
		t.Fatal(err)
	}
	if err := runCmd("faults", args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("sweep not deterministic for fixed seed/shards:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestFaultsRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-fractions", "1.5"},
		{"-fractions", ""},
		{"-mode", "gremlins"},
		{"-policy", "teleport"},
		{"-format", "xml"},
		{"-arb", "coinflip"},
		{"-load", "0"},
		{"-load", "2"},
		{"-load", "NaN"},
		{"-a", "3"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := runCmd("faults", args, &sb); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
