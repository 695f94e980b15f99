package main

import (
	"strings"
	"testing"
)

func TestRunAnalytic(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("maspar", nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"RA-EDN(16,4,2,16)", "0.544", "34.41"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "measured time") {
		t.Error("measurement should not run without -simulate")
	}
}

func TestRunSimulated(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("maspar", []string{"-simulate", "-trials", "1", "-seed", "7"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "measured time") {
		t.Errorf("missing measurement:\n%s", sb.String())
	}
}

func TestMasparRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("maspar", []string{"-bogus"}, &sb); err == nil {
		t.Fatal("expected flag parse error")
	}
}
