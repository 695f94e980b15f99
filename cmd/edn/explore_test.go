package main

import (
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("explore", nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Pareto front", "EDN(", "crossbar reference", "PA(1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The MasPar router design must be among the 1024-port candidates.
	if !strings.Contains(out, "EDN(64,16,4,2)") {
		t.Errorf("MasPar design missing from front:\n%s", out)
	}
}

func TestRunBudgetAndFloor(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("explore", []string{"-ports", "1024", "-budget", "200000", "-floor", "0.5", "-all"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"best within 200000 crosspoints", "cheapest with PA(1) >= 0.500", "all candidates"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunImpossibleQueries(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("explore", []string{"-ports", "1024", "-budget", "10", "-floor", "0.99"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "no design fits") || !strings.Contains(out, "no design reaches") {
		t.Errorf("impossible queries should report failure:\n%s", out)
	}
}

func TestExploreRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("explore", []string{"-ports", "1000"}, &sb); err == nil {
		t.Error("expected error for non-power-of-two ports")
	}
	if err := runCmd("explore", []string{"-wat"}, &sb); err == nil {
		t.Error("expected flag parse error")
	}
}
