package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func explain(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := runCmd("explain", args, &sb); err != nil {
		t.Fatalf("edn explain %s: %v", strings.Join(args, " "), err)
	}
	return sb.String()
}

// TestExplainShardInvariantAndSpecReplay covers both engines and both
// workloads: the anatomy report comes from one sequential observation
// pass, so the rendered output must not depend on -shards, and a
// -dump-spec replayed through -spec must reproduce it byte for byte.
func TestExplainShardInvariantAndSpecReplay(t *testing.T) {
	for _, engine := range []string{"edn", "dilated"} {
		for _, mode := range []string{"latency", "loop"} {
			t.Run(engine+"/"+mode, func(t *testing.T) {
				load := "0.8"
				if mode == "loop" {
					load = "0.4"
				}
				args := []string{"-a", "4", "-b", "2", "-c", "2", "-l", "2",
					"-engine", engine, "-mode", mode, "-load", load,
					"-cycles", "300", "-warmup", "30", "-seed", "5", "-top-k", "3"}
				one := explain(t, append(args, "-shards", "1")...)
				two := explain(t, append(args, "-shards", "2")...)
				if one != two {
					t.Fatalf("output depends on the shard count:\n-shards 1:\n%s\n-shards 2:\n%s", one, two)
				}
				if !strings.Contains(one, "stage") {
					t.Errorf("report has no per-stage table:\n%s", one)
				}
				path := filepath.Join(t.TempDir(), "spec.json")
				if err := os.WriteFile(path, []byte(explain(t, append(args, "-shards", "2", "-dump-spec")...)), 0o644); err != nil {
					t.Fatal(err)
				}
				if replay := explain(t, "-spec", path); replay != two {
					t.Fatalf("-spec replay differs from the flag run:\nflags:\n%s\nreplay:\n%s", two, replay)
				}
				flagJSON := explain(t, append(args, "-shards", "2", "-format", "json")...)
				if replay := explain(t, "-spec", path, "-format", "json"); replay != flagJSON {
					t.Fatalf("-spec JSON replay differs from the flag run:\nflags:\n%s\nreplay:\n%s", flagJSON, replay)
				}
			})
		}
	}
}

func TestExplainRejectsUnknownEngineAndMode(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "pair"},
		{"-engine", "nope"},
		{"-mode", "drain"},
	} {
		var sb strings.Builder
		if err := runCmd("explain", append([]string{"-a", "4", "-b", "2", "-c", "2", "-l", "2", "-cycles", "50"}, args...), &sb); err == nil {
			t.Errorf("edn explain %s accepted", strings.Join(args, " "))
		}
	}
}
