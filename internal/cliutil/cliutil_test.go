package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edn/internal/queuesim"
	"edn/internal/topology"
)

func TestParseFloatList(t *testing.T) {
	got, err := ParseFloatList(" 0.1, 0.5 ,1.0", 0, 1, "load")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.1 || got[2] != 1 {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"", "nope", "1.5", "-0.1"} {
		if _, err := ParseFloatList(bad, 0, 1, "load"); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("drop"); err != nil || p != queuesim.Drop {
		t.Errorf("drop -> %v, %v", p, err)
	}
	if p, err := ParsePolicy("backpressure"); err != nil || p != queuesim.Backpressure {
		t.Errorf("backpressure -> %v, %v", p, err)
	}
	if _, err := ParsePolicy("teleport"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestArbiterFactory(t *testing.T) {
	if f, err := ArbiterFactory("priority", 1); err != nil || f != nil {
		t.Errorf("priority should be the nil fast path, got %v, %v", f, err)
	}
	for _, name := range []string{"roundrobin", "random"} {
		f, err := ArbiterFactory(name, 1)
		if err != nil || f == nil {
			t.Errorf("%s: %v, %v", name, f, err)
			continue
		}
		if order := f().Order(4); len(order) != 4 {
			t.Errorf("%s arbiter order %v", name, order)
		}
	}
	if _, err := ArbiterFactory("coinflip", 1); err != nil {
		// expected
	} else {
		t.Error("bad arbitration accepted")
	}
}

func TestGeometryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	a, b, c, l := GeometryFlags(fs, 64, 16, 4, 2)
	if err := fs.Parse([]string{"-a", "8", "-l", "3"}); err != nil {
		t.Fatal(err)
	}
	if *a != 8 || *b != 16 || *c != 4 || *l != 3 {
		t.Errorf("parsed a=%d b=%d c=%d l=%d", *a, *b, *c, *l)
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	cols := []Column{
		{Name: "load", Format: "%8.3f"},
		{Name: "throughput", Head: "thr/cycle", Format: "%10.2f"},
		{Name: "injected", CSVOnly: true},
		{Name: "dropped", Format: "%9d"},
	}
	rows := [][]any{
		{0.5, 12.25, int64(640), int64(3)},
		{1.0, 14.5, int64(1280), int64(71)},
	}
	var tab strings.Builder
	if err := WriteTable(&tab, cols, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines: %q", tab.String())
	}
	if lines[0] != "    load  thr/cycle   dropped" {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if strings.Contains(tab.String(), "640") {
		t.Errorf("CSV-only column leaked into the table:\n%s", tab.String())
	}
	if lines[1] != "   0.500      12.25         3" {
		t.Errorf("row misformatted: %q", lines[1])
	}

	var csv strings.Builder
	if err := WriteCSV(&csv, cols, rows); err != nil {
		t.Fatal(err)
	}
	want := "load,throughput,injected,dropped\n0.5,12.25,640,3\n1,14.5,1280,71\n"
	if csv.String() != want {
		t.Errorf("csv:\n%q\nwant:\n%q", csv.String(), want)
	}

	// Mismatched row width is an error, not a panic.
	if err := WriteTable(io.Discard, cols, [][]any{{1.0}}); err == nil {
		t.Error("short row accepted by WriteTable")
	}
	if err := WriteCSV(io.Discard, cols, [][]any{{1.0}}); err == nil {
		t.Error("short row accepted by WriteCSV")
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "{\n  \"x\": 1\n}\n" {
		t.Errorf("json: %q", got)
	}
}

func TestDilatedHelpers(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	on := DilatedFlag(fs, "test comparison")
	if err := fs.Parse([]string{"-dilated"}); err != nil {
		t.Fatal(err)
	}
	if !*on {
		t.Fatal("-dilated did not set the flag")
	}

	cfg, err := topology.New(4, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dcfg.Ports() != cfg.Inputs() {
		t.Errorf("counterpart %v has %d ports for %d inputs", dcfg, dcfg.Ports(), cfg.Inputs())
	}
	var sb strings.Builder
	DilatedHeader(&sb, cfg, dcfg)
	out := sb.String()
	for _, want := range []string{"dilated counterpart", "ports", "wires vs EDN"} {
		if !strings.Contains(out, want) {
			t.Errorf("header missing %q: %s", want, out)
		}
	}
}

// TestLoadSpecIsStrict pins the spec-file decoder: one JSON document
// with known fields loads; a second document after it, trailing
// garbage or an unknown field is an error naming the file.
func TestLoadSpecIsStrict(t *testing.T) {
	type spec struct {
		Mode   string `json:"mode"`
		Cycles int    `json:"cycles"`
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"one", `{"mode":"latency","cycles":5}` + "\n\t ", true},
		{"two", `{"mode":"latency"} {"mode":"saturation"}`, false},
		{"garbage", `{"mode":"latency"} trailing`, false},
		{"unknown", `{"mode":"latency","cylces":5}`, false},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var got spec
		err := LoadSpec(path, &got)
		switch {
		case tc.ok && (err != nil || got != spec{Mode: "latency", Cycles: 5}):
			t.Errorf("%s: got %+v, %v", tc.name, got, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), path)):
			t.Errorf("%s: want an error naming %s, got %v", tc.name, path, err)
		}
	}
}
