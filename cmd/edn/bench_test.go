package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOut = `goos: linux
pkg: edn/internal/core
BenchmarkRouteCycleInto-8	22272	25889 ns/op	0 B/op	0 allocs/op
BenchmarkProbeOff-8	1000000	1042 ns/op	0 B/op	0 allocs/op
PASS
ok  	edn/internal/core	1.0s
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(path, []byte(sampleOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecordBudgetsAndCheck(t *testing.T) {
	input := writeSample(t)
	dir := filepath.Dir(input)
	snap := filepath.Join(dir, "BENCH_X.json")
	budgets := filepath.Join(dir, "budgets.json")

	var out strings.Builder
	err := runBench([]string{
		"-input", input,
		"-record", snap, "-comment", "test run",
		"-write-budgets", budgets, "-headroom", "1.15",
		"-budget-bench", "RouteCycleInto|ProbeOff",
	}, nil, &out)
	if err != nil {
		t.Fatalf("record: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"snapshot": "BENCH_X"`, "prX_headline", "BenchmarkRouteCycleInto"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("snapshot missing %s:\n%s", want, raw)
		}
	}

	// The same run checks clean against its own derived budgets, and
	// diffs flat against its own snapshot.
	out.Reset()
	err = runBench([]string{"-input", input, "-check", "-budgets", budgets, "-baseline", snap}, nil, &out)
	if err != nil {
		t.Fatalf("self-check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 2 budgeted benchmarks within budget") {
		t.Errorf("self-check not clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "diff vs BENCH_X") {
		t.Errorf("baseline diff missing:\n%s", out.String())
	}

	// A 3x regression must fail the gate.
	slow := filepath.Join(dir, "slow.out")
	slowOut := strings.ReplaceAll(sampleOut, "25889 ns/op", "80000 ns/op")
	if err := os.WriteFile(slow, []byte(slowOut), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runBench([]string{"-input", slow, "-check", "-budgets", budgets}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "bench check failed") {
		t.Fatalf("3x regression passed the gate: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("report shows no FAIL row:\n%s", out.String())
	}
}

func TestCheckWarnsInNoiseBand(t *testing.T) {
	input := writeSample(t)
	dir := filepath.Dir(input)
	budgets := filepath.Join(dir, "budgets.json")
	var out strings.Builder
	if err := runBench([]string{"-input", input, "-write-budgets", budgets, "-headroom", "1.0"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	// 1.5x budget: over, but within the 2x hard factor.
	warm := filepath.Join(dir, "warm.out")
	warmOut := strings.ReplaceAll(sampleOut, "25889 ns/op", "38000 ns/op")
	if err := os.WriteFile(warm, []byte(warmOut), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := runBench([]string{"-input", warm, "-check", "-budgets", budgets}, nil, &out)
	if err != nil {
		t.Fatalf("noise-band run must not fail: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 warning") || !strings.Contains(out.String(), "WARN") {
		t.Errorf("warning not reported:\n%s", out.String())
	}
}

func TestCommittedBudgetsCoverTestdata(t *testing.T) {
	// The committed budget file must check clean against the committed
	// reference run — this is exactly what CI's cli-smoke executes.
	for _, p := range []string{"testdata/bench.out", "../../BENCH_BUDGETS.json"} {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("%s not present", p)
		}
	}
	var out strings.Builder
	err := runBench([]string{"-input", "testdata/bench.out", "-check", "-budgets", "../../BENCH_BUDGETS.json"}, nil, &out)
	if err != nil {
		t.Fatalf("committed budgets reject the committed run: %v\n%s", err, out.String())
	}
}

func TestStdinAndFormats(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		var out strings.Builder
		err := runBench([]string{"-input", "-", "-format", format}, strings.NewReader(sampleOut), &out)
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if !strings.Contains(out.String(), "parsed 2 benchmarks") {
			t.Errorf("format %s: %s", format, out.String())
		}
	}
	if err := runBench([]string{"-input", "-", "-format", "yaml"}, strings.NewReader(sampleOut), nil); err == nil {
		t.Error("unknown format accepted")
	}
}
