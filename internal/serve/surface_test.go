package serve_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"edn"
	"edn/internal/serve"
)

// cancelQueued submits spec as job id on s while another job holds
// every worker slot, waits for its accepted event, cancels it and
// returns once it has ended, cancelled. The job never reaches a
// worker, so it always ends through the queue's cancellation path: a
// context that is already cancelled would race a free slot in
// Execute's select instead. onTerminal, if set, runs inside the
// terminal emit.
func cancelQueued(t *testing.T, s *serve.Server, id string, spec edn.JobSpec, onTerminal func(serve.Event)) {
	t.Helper()
	accepted, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		err := s.Execute(context.Background(), id, spec, func(ev serve.Event) {
			switch ev.Event {
			case "accepted":
				close(accepted)
			case "result", "error":
				if onTerminal != nil {
					onTerminal(ev)
				}
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued job %s: want it cancelled, got %v", id, err)
		}
	}()
	<-accepted
	if !s.Cancel(id) {
		t.Errorf("queued job %s is not live", id)
	}
	<-ended
}

// metricsMask names the /metrics series whose values are wall-clock or
// Go-runtime readings; /v1/stats' are matched by statsMask.
var (
	metricsMask = regexp.MustCompile(`(?m)^((?:edn_go_\w+|edn_serve_uptime_seconds|edn_serve_span_seconds_total|edn_serve_job_duration_seconds_(?:sum|bucket))(?:\{[^}]*\})?) \S+$`)
	statsMask   = regexp.MustCompile(`("(?:uptime_seconds|total_ns|max_ns)": )[^,\n]+`)
)

// TestServeSurfaceGolden pins the daemon's read surfaces, /metrics and
// /v1/stats, byte for byte after a fixed job sequence on a one-worker
// server: an ok estimate; an ok 3-load saturation that holds the worker
// at its first point while a third job queues behind it and is
// cancelled; and a run-time failure. Only values that read a clock or
// the Go runtime are masked (edn_go_*, the uptime, span seconds and
// nanoseconds, the job-duration sum and buckets); every name, label set,
// # TYPE line, count, cache figure and the order stay compared. There
// is no update flag: the file changes only with an intended surface
// change, regenerated on the parent first.
func TestServeSurfaceGolden(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	runJob(t, s, estimateSpec())

	held := false
	err := s.Execute(context.Background(), "sweep", sweepSpec(), func(ev serve.Event) {
		if ev.Event == "point" && !held {
			held = true
			cancelQueued(t, s, "queued", estimateSpec(), nil)
		}
	})
	if err != nil || !held {
		t.Fatalf("holding sweep: err %v, held %v", err, held)
	}

	if err := s.Execute(context.Background(), "nope", edn.JobSpec{Mode: "nope"}, func(serve.Event) {}); err == nil {
		t.Fatal("a job of an unknown mode succeeded")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var got strings.Builder
	got.WriteString("# GET /metrics\n")
	got.WriteString(metricsMask.ReplaceAllString(httpGet(t, ts.URL+"/metrics"), "$1 X"))
	got.WriteString("# GET /v1/stats\n")
	got.WriteString(statsMask.ReplaceAllString(httpGet(t, ts.URL+"/v1/stats"), "${1}X"))

	want, err := os.ReadFile("testdata/serve_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("serve surface differs from testdata/serve_surface.golden; got:\n%s", got.String())
	}
}
