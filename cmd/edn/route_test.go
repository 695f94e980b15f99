package main

import (
	"strings"
	"testing"
)

func TestRunStandardTrace(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-src", "631", "-dst", "422"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(64,16,4,2)", "destination tag", "stage 1", "crossbar", "route 631 -> 422"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithChoices(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-src", "0", "-dst", "10", "-choices", "1,3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wire 3") {
		t.Errorf("choice not honored:\n%s", sb.String())
	}
}

func TestRunReversedOrder(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-src", "5", "-dst", "5", "-order", "reversed"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compensating output permutation") {
		t.Errorf("reversed order output missing compensation note:\n%s", sb.String())
	}
}

func TestRouteRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-choices", "x"}, &sb); err == nil {
		t.Error("expected bad choice error")
	}
	if err := runCmd("route", []string{"-order", "sideways"}, &sb); err == nil {
		t.Error("expected unknown order error")
	}
	if err := runCmd("route", []string{"-dst", "99999"}, &sb); err == nil {
		t.Error("expected destination range error")
	}
	if err := runCmd("route", []string{"-flagless"}, &sb); err == nil {
		t.Error("expected flag parse error")
	}
}

func TestRunCustomGeometry(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3", "-src", "7", "-dst", "100"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EDN(4,4,2,3)", "16 inputs", "128 outputs", "8 paths", "route 7 -> 100"} {
		if !strings.Contains(out, want) {
			t.Errorf("custom geometry trace missing %q:\n%s", want, out)
		}
	}
	// Every hyperbar stage plus the crossbar appears in the walk.
	for _, stage := range []string{"stage 1", "stage 2", "stage 3", "crossbar"} {
		if !strings.Contains(out, stage) {
			t.Errorf("trace missing %q:\n%s", stage, out)
		}
	}
}

func TestRunChoicesValidation(t *testing.T) {
	// A wire choice outside [0, c) must be rejected, as must more
	// choices than hyperbar stages.
	var sb strings.Builder
	if err := runCmd("route", []string{"-src", "0", "-dst", "1", "-choices", "9"}, &sb); err == nil {
		t.Error("out-of-range wire choice accepted")
	}
	if err := runCmd("route", []string{"-src", "0", "-dst", "1", "-choices", "0,0,0,0,0"}, &sb); err == nil {
		t.Error("too many wire choices accepted")
	}
}

func TestRunSourceRangeError(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("route", []string{"-src", "99999", "-dst", "0"}, &sb); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := runCmd("route", []string{"-src", "-1", "-dst", "0"}, &sb); err == nil {
		t.Error("negative source accepted")
	}
}

func TestRunReversedOrderDeliversToF(t *testing.T) {
	// With reversed retirement the physical delivery terminal F(dst)
	// generally differs from dst; the compensation line must name both.
	var sb strings.Builder
	if err := runCmd("route", []string{"-a", "4", "-b", "4", "-c", "2", "-l", "3", "-src", "0", "-dst", "3", "-order", "reversed"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "maps it back to 3") {
		t.Errorf("reversed order output missing the compensation target:\n%s", out)
	}
}
