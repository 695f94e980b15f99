package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edn"
)

// runCmd runs one subcommand the way `edn name args...` does.
func runCmd(name string, args []string, w io.Writer) error {
	return run(append([]string{name}, args...), strings.NewReader(""), w)
}

// runBench runs the bench subcommand with its own stdin.
func runBench(args []string, stdin io.Reader, w io.Writer) error {
	return run(append([]string{"bench"}, args...), stdin, w)
}

// runOK runs a subcommand that must succeed and returns its output.
func runOK(t *testing.T, name string, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := runCmd(name, args, &sb); err != nil {
		t.Fatalf("edn %s %s: %v", name, strings.Join(args, " "), err)
	}
	return sb.String()
}

// jsonDocs splits concatenated JSON documents.
func jsonDocs(t *testing.T, out string) []json.RawMessage {
	t.Helper()
	var docs []json.RawMessage
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var doc json.RawMessage
		if err := dec.Decode(&doc); err == io.EOF {
			return docs
		} else if err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		docs = append(docs, doc)
	}
}

// jobResults decodes the JobResult documents a -format json run prints.
func jobResults(t *testing.T, out string) []edn.JobResult {
	t.Helper()
	docs := jsonDocs(t, out)
	results := make([]edn.JobResult, len(docs))
	for i, doc := range docs {
		if err := json.Unmarshal(doc, &results[i]); err != nil {
			t.Fatalf("bad JobResult: %v\n%s", err, doc)
		}
	}
	return results
}

func TestUnknownCommand(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}, {"-h"}} {
		if err := run(args, nil, io.Discard); err == nil || !strings.Contains(err.Error(), "latency") {
			t.Errorf("edn %v: want the command list, got %v", args, err)
		}
	}
}

// TestJSONIsSpecReplay: a sweep's -format json output is exactly the
// concatenated -spec replays of its -dump-spec documents — one JobResult
// per job, the same bytes the daemon streams for those specs.
func TestJSONIsSpecReplay(t *testing.T) {
	base := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-warmup", "20", "-seed", "3", "-shards", "2"}
	for _, tc := range []struct {
		name, cmd string
		args      []string
		docs      [2]int // without, with -dilated
	}{
		{"latency", "latency", []string{"-loads", "0.4,0.9", "-cycles", "150", "-trace", "3"}, [2]int{1, 2}},
		{"faults", "faults", []string{"-fractions", "0,0.2", "-cycles", "150", "-expected"}, [2]int{1, 2}},
		{"lifetime", "lifetime", []string{"-epochs", "4", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "3"}, [2]int{1, 2}},
		{"loop", "loop", []string{"-rates", "0.3,0.6", "-cycles", "200"}, [2]int{1, 2}},
		{"loop-lifetime", "loop", []string{"-lifetime", "-epochs", "4", "-epoch-cycles", "40", "-mtbf", "10", "-mttr", "3", "-rate", "0.4"}, [2]int{1, 2}},
	} {
		for i, dilated := range []bool{false, true} {
			args := append(append([]string{}, base...), tc.args...)
			name := tc.name
			if dilated {
				args, name = append(args, "-dilated"), name+"/dilated"
			}
			t.Run(name, func(t *testing.T) {
				got := runOK(t, tc.cmd, append(args, "-format", "json")...)
				docs := jsonDocs(t, runOK(t, tc.cmd, append(args, "-dump-spec")...))
				if len(docs) != tc.docs[i] {
					t.Fatalf("-dump-spec printed %d specs, want %d", len(docs), tc.docs[i])
				}
				var want strings.Builder
				for j, doc := range docs {
					path := filepath.Join(t.TempDir(), fmt.Sprintf("spec%d.json", j))
					if err := os.WriteFile(path, doc, 0o644); err != nil {
						t.Fatal(err)
					}
					want.WriteString(runOK(t, tc.cmd, "-spec", path))
				}
				if got != want.String() {
					t.Errorf("-format json differs from the -spec replays:\n%s\nvs\n%s", got, want.String())
				}
			})
		}
	}
}

// TestFlagSurface pins every subcommand's flag names and defaults to
// those of the standalone binary it replaced, recorded from that
// binary's -h output in testdata/flags/<subcommand>.txt.
func TestFlagSurface(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "flags", "*.txt"))
	if err != nil || len(files) != len(commands) {
		t.Fatalf("%d recorded flag sets for %d subcommands (%v)", len(files), len(commands), err)
	}
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			recorded, err := os.ReadFile(filepath.Join("testdata", "flags", c.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var help strings.Builder
			if err := runCmd(c.name, []string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("-h: %v", err)
			}
			if got, want := flagDefaults(help.String()), flagDefaults(string(recorded)); !reflect.DeepEqual(got, want) {
				t.Errorf("flags and defaults changed:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// flagDefaults maps each flag in flag.PrintDefaults output to its
// default as printed; "" stands for a zero default, which -h omits.
func flagDefaults(help string) map[string]string {
	defaults := map[string]string{}
	var name string
	for _, line := range strings.Split(help, "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			name = strings.Fields(f)[0]
			defaults[name] = ""
		} else if i := strings.LastIndex(line, " (default "); i >= 0 && name != "" && strings.HasSuffix(line, ")") {
			defaults[name] = line[i+len(" (default ") : len(line)-1]
		}
	}
	return defaults
}

// TestUnknownFormatRejected: explain and trace reject a -format they
// cannot render, like every other subcommand, instead of printing a
// table.
func TestUnknownFormatRejected(t *testing.T) {
	geo := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-cycles", "100", "-warmup", "10"}
	for _, tc := range []struct{ cmd, format string }{{"explain", "csv"}, {"trace", "xml"}} {
		var sb strings.Builder
		if err := runCmd(tc.cmd, append(geo, "-format", tc.format), &sb); err == nil {
			t.Errorf("edn %s -format %s accepted:\n%s", tc.cmd, tc.format, sb.String())
		}
	}
}

// TestProfilesStoppedOnEveryPath: a run that fails after profiling
// started still leaves a readable CPU profile, and a heap profile that
// cannot be written is an error, not a silent success.
func TestProfilesStoppedOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	if err := runCmd("trace", []string{"-engine", "bogus", "-cpuprofile", cpu}, io.Discard); err == nil {
		t.Fatal("unknown engine accepted")
	}
	f, err := os.Open(cpu)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("CPU profile of a failed run is unreadable: %v", err)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("CPU profile of a failed run is truncated: %v", err)
	}

	mem := filepath.Join(dir, "missing", "m.prof")
	err = runCmd("latency", []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
		"-loads", "0.5", "-cycles", "50", "-warmup", "10", "-shards", "1", "-memprofile", mem}, io.Discard)
	if err == nil {
		t.Error("unwritable -memprofile reported success")
	}
}
