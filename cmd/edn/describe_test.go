package main

import (
	"strings"
	"testing"
)

func TestRunFigure4Network(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("describe", nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(16,4,4,2)", "stage 1: 4 x H(16 -> 4x4)", "fan-out"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNetlistDump(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("describe", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-netlist"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "netlist (") || !strings.Contains(out, "in[0] -> s1.i0.p0") {
		t.Errorf("netlist dump missing:\n%s", out)
	}
}

func TestDescribeRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("describe", []string{"-a", "5"}, &sb); err == nil {
		t.Error("expected validation error")
	}
	if err := runCmd("describe", []string{"-zzz"}, &sb); err == nil {
		t.Error("expected flag parse error")
	}
}
