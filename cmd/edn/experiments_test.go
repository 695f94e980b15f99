package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := runCmd("experiments", []string{"-out", dir, "-max-inputs", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure7.txt", "figure7.csv", "figure8.txt", "figure8.csv",
		"figure11.txt", "figure11.csv", "costs.txt", "maspar.txt", "INDEX.md",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// Without -simulate no simulation file appears.
	if _, err := os.Stat(filepath.Join(dir, "simulation.txt")); err == nil {
		t.Error("simulation.txt should not exist without -simulate")
	}
	maspar, err := os.ReadFile(filepath.Join(dir, "maspar.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(maspar), "0.544") {
		t.Errorf("maspar report missing PA(1):\n%s", maspar)
	}
}

func TestRunWithSimulation(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := runCmd("experiments", []string{"-out", dir, "-max-inputs", "1024", "-simulate", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "simulation.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Equation 4") {
		t.Errorf("simulation artifact malformed:\n%s", data)
	}
}

// TestSimulationIndependentOfGOMAXPROCS pins the "seeded,
// deterministic" promise of simulation.txt: the Monte-Carlo
// cross-checks must not depend on the host's CPU count.
func TestSimulationIndependentOfGOMAXPROCS(t *testing.T) {
	simulate := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		var sb strings.Builder
		if err := runCmd("experiments", []string{"-out", dir, "-max-inputs", "64", "-simulate", "-seed", "1"}, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "simulation.txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	one, four := simulate(1), simulate(4)
	if one != four {
		t.Fatalf("simulation.txt differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", one, four)
	}
}

func TestExperimentsRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := runCmd("experiments", []string{"-nah"}, &sb); err == nil {
		t.Fatal("expected flag parse error")
	}
}
