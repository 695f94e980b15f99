package main

import (
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("figures", []string{"-fig", "7", "-max-inputs", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "EDN(8,2,4,*)") {
		t.Errorf("missing figure content:\n%s", out)
	}
	if strings.Contains(out, "Figure 8") {
		t.Error("figure 8 should not appear for -fig 7")
	}
}

func TestRunAllCSV(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("figures", []string{"-fig", "all", "-csv", "-max-inputs", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "series,x,y") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	for _, want := range []string{"Full Crossbar", "EDN(16,4,4,*)", "resubmitted"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("figures", []string{"-fig", "12"}, &sb); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestFiguresRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("figures", []string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Fatal("expected flag parse error")
	}
}
