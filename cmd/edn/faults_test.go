package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"edn"
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
	args := []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-fractions", "0,0.2", "-cycles", "100", "-warmup", "20", "-shards", "1", "-dilated"}
	out := runOK(t, "faults", args...)
	for _, want := range []string{"dilated counterpart 4-dilated delta(b=4,l=3)", "dilated", "wires vs EDN"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The counterpart's measured degradation shows in the CSV column,
	// and with -expected its model beside it.
	lines := strings.Split(strings.TrimSpace(runOK(t, "faults", append(args, "-expected", "-format", "csv")...)), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 fraction rows, got:\n%s", strings.Join(lines, "\n"))
	}
	col := map[string]int{}
	for i, name := range strings.Split(lines[0], ",") {
		col[name] = i
	}
	var dil, model [2]float64
	for i, line := range lines[1:] {
		var err error
		fields := strings.Split(line, ",")
		if dil[i], err = strconv.ParseFloat(fields[col["dilated_throughput_per_input"]], 64); err != nil {
			t.Fatal(err)
		}
		if model[i], err = strconv.ParseFloat(fields[col["dilated_expected_throughput"]], 64); err != nil {
			t.Fatalf("dilated model column missing from %q: %v", lines[0], err)
		}
	}
	if dil[0] <= 0 || model[0] <= 0 {
		t.Errorf("fault-free dilated throughput or model missing: %v %v", dil, model)
	}
	if dil[1] >= dil[0] || model[1] >= model[0] {
		t.Errorf("dilated throughput or model did not degrade: %v %v", dil, model)
	}

	// No dilated column without the flag (already covered for table by
	// TestFaultsRunTableSweep's line count; check json omits the field).
	if out := runOK(t, "faults", "-a", "4", "-b", "4", "-c", "2", "-l", "2",
		"-fractions", "0", "-cycles", "60", "-warmup", "10", "-shards", "1",
		"-format", "json"); strings.Contains(out, "dilated") {
		t.Errorf("json shows dilated fields without -dilated:\n%s", out)
	}
}

// TestFaultsRunDilatedJSON: the comparison is two jobs, like every
// other -dilated sweep: -format json prints the EDN's JobResult, then
// the counterpart's, and the table's dilated column is that second
// document's measured throughput per input.
func TestFaultsRunDilatedJSON(t *testing.T) {
	args := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-fractions", "0,0.2",
		"-cycles", "200", "-warmup", "20", "-shards", "2", "-mode", "switches", "-dilated"}
	results := jobResults(t, runOK(t, "faults", append(args, "-format", "json")...))
	if len(results) != 2 || results[1].Spec.Engine != edn.EngineDilated {
		t.Fatalf("want the EDN and dilated results, got %d documents", len(results))
	}
	edns, dils := results[0].Availability, results[1].Availability
	if len(dils) != len(edns) {
		t.Fatalf("%d dilated points for %d EDN points", len(dils), len(edns))
	}
	if results[1].Spec.Avail.Mode != "wires" {
		t.Errorf("the counterpart fails %q, want its sub-wires", results[1].Spec.Avail.Mode)
	}
	for i, p := range dils {
		if p.Dilated.String() != "2-dilated delta(b=2,l=3)" || p.FaultFraction != edns[i].FaultFraction {
			t.Errorf("point %d: label %v at fraction %g, want the counterpart at %g", i, p.Dilated, p.FaultFraction, edns[i].FaultFraction)
		}
	}
	lines := strings.Split(strings.TrimSpace(runOK(t, "faults", args...)), "\n")[3:]
	if len(lines) != len(dils) {
		t.Fatalf("%d table rows for %d points", len(lines), len(dils))
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if got, want := fields[len(fields)-1], fmt.Sprintf("%.3f", dils[i].ThroughputPerInput); got != want {
			t.Errorf("row %d: dilated column %s, want the dilated job's %s", i, got, want)
		}
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
