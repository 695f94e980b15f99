package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"edn"
)

func TestServeNeedsATransport(t *testing.T) {
	if err := runCmd("serve", []string{"-stdio=false"}, io.Discard); err == nil {
		t.Error("-stdio=false without -http accepted")
	}
}

func TestServePprofNeedsHTTP(t *testing.T) {
	if err := runCmd("serve", []string{"-pprof"}, io.Discard); err == nil {
		t.Error("-pprof without -http accepted")
	}
}

// TestServeStdioSession drives a stdio session to EOF: one run, one
// ping. The job's result event carries exactly what edn.Run returns
// for the spec, and the session ends cleanly once its job is done.
func TestServeStdioSession(t *testing.T) {
	spec := edn.JobSpec{
		Mode:     edn.JobLatency,
		Geometry: &edn.GeometrySpec{A: 4, B: 2, C: 2, L: 2},
		Load:     0.6,
		Sim:      edn.SimSpec{Cycles: 200, Warmup: 20, Seed: 3, Shards: 1},
	}
	line, err := json.Marshal(map[string]any{"id": "j1", "op": "run", "spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(string(line) + "\n" + `{"id":"p","op":"ping"}` + "\n")
	var out bytes.Buffer
	if err := run([]string{"serve"}, in, &out); err != nil {
		t.Fatalf("session: %v\n%s", err, out.String())
	}

	res, err := edn.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, doc := range jsonDocs(t, out.String()) {
		var ev struct {
			Event  string          `json:"event"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(doc, &ev); err != nil {
			t.Fatal(err)
		}
		events[ev.Event]++
		if ev.Event == "result" {
			var got bytes.Buffer
			if err := json.Compact(&got, ev.Result); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("result event differs from edn.Run:\n%s\nvs\n%s", got.Bytes(), want)
			}
		}
	}
	if events["result"] != 1 || events["pong"] != 1 {
		t.Errorf("want one result and one pong, got %v:\n%s", events, out.String())
	}
}
