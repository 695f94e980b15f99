package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunUniform(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-cycles", "50"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(16,4,4,2)", "measured", "Equation 4", "blocked per stage"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPermutationTraffic(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-traffic", "permutation", "-cycles", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Equation 5") {
		t.Errorf("permutation run should cite Equation 5:\n%s", sb.String())
	}
}

func TestRunEveryTrafficKind(t *testing.T) {
	for _, traffic := range []string{"uniform", "permutation", "partial", "hotspot", "identity", "bitreversal"} {
		var sb strings.Builder
		err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-traffic", traffic, "-cycles", "10"}, &sb)
		if err != nil {
			t.Errorf("traffic %s: %v", traffic, err)
		}
	}
}

func TestRunEveryArbiter(t *testing.T) {
	for _, arb := range []string{"priority", "roundrobin", "random"} {
		var sb strings.Builder
		err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-arb", arb, "-cycles", "10"}, &sb)
		if err != nil {
			t.Errorf("arb %s: %v", arb, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-cycles", "20", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Network     string   `json:"network"`
		MeasuredPA  float64  `json:"measuredPA"`
		Equation4PA *float64 `json:"equation4PA"`
		Blocked     []int    `json:"blockedPerStage"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if report.Network != "EDN(16,4,4,2)" {
		t.Errorf("network = %q", report.Network)
	}
	if report.MeasuredPA <= 0 || report.MeasuredPA > 1 {
		t.Errorf("measuredPA = %g", report.MeasuredPA)
	}
	if report.Equation4PA == nil {
		t.Error("uniform run should include equation4PA")
	}
	if len(report.Blocked) != 3 {
		t.Errorf("blockedPerStage = %v", report.Blocked)
	}

	// Non-uniform traffic omits the Equation 4 reference.
	sb.Reset()
	if err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-cycles", "5", "-traffic", "identity", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "equation4PA") {
		t.Error("identity run should omit equation4PA")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("sim", []string{"-a", "7"}, &sb); err == nil {
		t.Error("expected validation error for a=7")
	}
	if err := runCmd("sim", []string{"-traffic", "nope"}, &sb); err == nil {
		t.Error("expected error for unknown traffic")
	}
	if err := runCmd("sim", []string{"-arb", "nope"}, &sb); err == nil {
		t.Error("expected error for unknown arbiter")
	}
	if err := runCmd("sim", []string{"-what"}, &sb); err == nil {
		t.Error("expected flag parse error")
	}
}

func TestRunOfferedRateHonored(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("sim", []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2",
		"-r", "0.5", "-cycles", "400", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var report struct {
		OfferedRate float64 `json:"offeredRate"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if report.OfferedRate < 0.45 || report.OfferedRate > 0.55 {
		t.Errorf("offered rate %g, want ~0.5", report.OfferedRate)
	}
}

func TestRunCornerGeometries(t *testing.T) {
	// The crossbar corner EDN(4,4,1,1) and the delta corner EDN(4,4,1,2)
	// exercise the degenerate switch shapes end to end.
	for _, args := range [][]string{
		{"-a", "4", "-b", "4", "-c", "1", "-l", "1", "-cycles", "30"},
		{"-a", "4", "-b", "4", "-c", "1", "-l", "2", "-cycles", "30"},
	} {
		var sb strings.Builder
		if err := runCmd("sim", args, &sb); err != nil {
			t.Errorf("args %v: %v", args, err)
		} else if !strings.Contains(sb.String(), "measured") {
			t.Errorf("args %v produced no measurement:\n%s", args, sb.String())
		}
	}
}

func TestRunSeedDeterminism(t *testing.T) {
	args := []string{"-a", "16", "-b", "4", "-c", "4", "-l", "2", "-cycles", "100", "-seed", "7"}
	var a, b strings.Builder
	if err := runCmd("sim", args, &a); err != nil {
		t.Fatal(err)
	}
	if err := runCmd("sim", args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestSimRejectsHostileInputs: a rate that is NaN or outside [0,1], a
// negative cycle budget (it used to run the default 1,000), and
// identity or bit-reversal traffic on a network with fewer outputs than
// inputs, are errors — never a panic or a measurement of nonsense.
func TestSimRejectsHostileInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-cycles", "-5"},
		{"-r", "1.5"},
		{"-r", "-1"},
		{"-r", "NaN"},
		{"-a", "16", "-b", "4", "-c", "2", "-l", "3", "-traffic", "identity"},
		{"-a", "16", "-b", "4", "-c", "2", "-l", "3", "-traffic", "bitreversal"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			var sb strings.Builder
			if err := runCmd("sim", append([]string{"-cycles", "10"}, args...), &sb); err == nil {
				t.Fatalf("accepted; printed:\n%s", sb.String())
			}
		})
	}
}
