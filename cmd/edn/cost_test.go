package main

import (
	"strings"
	"testing"
)

func TestCostRunTable(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("cost", []string{"-max-inputs", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"network", "crosspoints", "wires", "EDN(16,16,1,", "dilated delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost table missing %q:\n%s", want, out)
		}
	}
}

func TestCostRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("cost", []string{"-nope"}, &sb); err == nil {
		t.Fatal("expected flag parse error")
	}
}
