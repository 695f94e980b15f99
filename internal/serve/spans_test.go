package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"edn"
	"edn/internal/serve"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close() //nolint:errcheck
	return resp.StatusCode
}

// runJob executes spec to completion on s and returns the terminal
// event.
func runJob(t *testing.T, s *serve.Server, spec edn.JobSpec) serve.Event {
	t.Helper()
	var term serve.Event
	err := s.Execute(context.Background(), "", spec, func(ev serve.Event) {
		if ev.Event == "result" || ev.Event == "error" {
			term = ev
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return term
}

// spanShape renders the structural identity of a span tree — names,
// child counts, parentage, per-shard identity — with every timing
// field erased. Two runs of the same JobSpec must agree on it exactly.
func spanShape(s *edn.Span) string {
	var b strings.Builder
	var walk func(s *edn.Span)
	walk = func(s *edn.Span) {
		b.WriteString(s.Name)
		if shard, ok := s.Attrs["shard"]; ok {
			fmt.Fprintf(&b, "#%s", shard)
		}
		if len(s.Children) > 0 {
			b.WriteByte('(')
			for i, c := range s.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				walk(c)
			}
			b.WriteByte(')')
		}
	}
	walk(s)
	return b.String()
}

// propertySpecs is the spec set the determinism properties quantify
// over: one per mode family that exercises a distinct execution shape
// (single point, sweep, sharded, cached masks, paired engines).
func propertySpecs() map[string]edn.JobSpec {
	geo := &edn.GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	return map[string]edn.JobSpec{
		"saturation": sweepSpec(),
		"estimate":   estimateSpec(),
		"latency": {
			Mode: edn.JobLatency, Geometry: geo, Load: 0.8,
			Queue: &edn.QueueSpec{Depth: 2},
			Sim:   edn.SimSpec{Cycles: 150, Warmup: 20, Seed: 7, Shards: 3},
		},
		"availability": {
			Mode: edn.JobAvailability, Geometry: geo,
			Avail: &edn.AvailabilitySpec{Fractions: []float64{0.05, 0.1}},
			Queue: &edn.QueueSpec{Depth: 2},
			Sim:   edn.SimSpec{Cycles: 120, Warmup: 10, Seed: 11, Shards: 2},
		},
		"closedloop-dilated": {
			Mode: edn.JobClosedLoop, Engine: edn.EngineDilated,
			Dilated: &edn.DilatedGeometrySpec{B: 2, D: 2, L: 3}, Rates: []float64{0.2, 0.5},
			Sim: edn.SimSpec{Cycles: 150, Warmup: 20, Seed: 9, Shards: 2},
		},
	}
}

// TestSpanShapeDeterministic pins the observability contract's first
// half: the span tree's shape is a pure function of the JobSpec —
// re-running the identical spec on a fresh server yields the identical
// structure no matter how the shard goroutines were scheduled.
func TestSpanShapeDeterministic(t *testing.T) {
	for name, spec := range propertySpecs() {
		t.Run(name, func(t *testing.T) {
			shapes := make([]string, 2)
			for i := range shapes {
				ev := runJob(t, serve.New(serve.Options{Workers: 2}), spec)
				if ev.Spans == nil {
					t.Fatal("terminal event carries no span tree")
				}
				if ev.Spans.Name != "job" {
					t.Fatalf("root span = %q, want job", ev.Spans.Name)
				}
				shapes[i] = spanShape(ev.Spans)
			}
			if shapes[0] != shapes[1] {
				t.Errorf("span shape differs between identical runs:\n%s\nvs\n%s", shapes[0], shapes[1])
			}
			for _, want := range []string{"queue_wait", "validate", "build", "execute", "serialize"} {
				if !strings.Contains(shapes[0], want) {
					t.Errorf("span tree missing %q stage:\n%s", want, shapes[0])
				}
			}
			if spec.Sim.Shards > 1 && !strings.Contains(shapes[0], "shard#1") {
				t.Errorf("sharded job records no shard spans:\n%s", shapes[0])
			}
		})
	}
}

// TestTracingDoesNotPerturbResults pins the contract's second half:
// tracing is observation-only. For every property spec, a traced
// server and a spans-disabled server produce byte-identical result
// payloads — and a warm re-run on the traced server (cache hits, spans
// attributed "hit") still matches.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for name, spec := range propertySpecs() {
		t.Run(name, func(t *testing.T) {
			traced := serve.New(serve.Options{Workers: 2})
			bare := serve.New(serve.Options{Workers: 2, DisableSpans: true})

			onEv := runJob(t, traced, spec)
			offEv := runJob(t, bare, spec)
			if onEv.Spans == nil || offEv.Spans != nil {
				t.Fatalf("spans presence wrong: traced=%v bare=%v", onEv.Spans != nil, offEv.Spans != nil)
			}
			on, err := json.Marshal(onEv.Result)
			if err != nil {
				t.Fatal(err)
			}
			off, err := json.Marshal(offEv.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(on) != string(off) {
				t.Errorf("traced result differs from untraced:\n%s\nvs\n%s", on, off)
			}
			warmEv := runJob(t, traced, spec)
			warm, err := json.Marshal(warmEv.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(warm) != string(on) {
				t.Errorf("warm traced result differs from cold:\n%s\nvs\n%s", warm, on)
			}
		})
	}
}

// TestStatsSpanAggregates checks the service-level span view: after a
// traced job, /v1/stats carries per-stage aggregates and the cache
// counters thread through (hits on the warm run, singleflight field
// present).
func TestStatsSpanAggregates(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	runJob(t, s, estimateSpec())
	runJob(t, s, estimateSpec()) // warm: same geometry, cache hits

	st := s.Stats()
	if st.QueueDepth != 0 || st.BusyWorkers != 0 {
		t.Errorf("idle server reports queue=%d busy=%d", st.QueueDepth, st.BusyWorkers)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("warm re-run recorded no cache hits: %+v", st.Cache)
	}
	agg := make(map[string]serve.SpanStat, len(st.Spans))
	for _, sp := range st.Spans {
		agg[sp.Name] = sp
	}
	for _, want := range []string{"job", "queue_wait", "validate", "build", "execute", "point", "serialize"} {
		sp, ok := agg[want]
		if !ok {
			t.Errorf("stats span aggregates missing stage %q: %+v", want, st.Spans)
			continue
		}
		if sp.Count < 2 {
			t.Errorf("stage %q count = %d, want >= 2 (two jobs ran)", want, sp.Count)
		}
	}

	// The same snapshot serves the stdio stats reply.
	c := dial(t, s)
	c.send(serve.Request{ID: "s1", Op: "stats"})
	ev := c.recvUntil(func(ev serve.Event) bool { return ev.Event == "stats" }, nil)
	if ev.Stats == nil || ev.Stats.Cache.Hits != st.Cache.Hits {
		t.Errorf("stdio stats cache mismatch: %+v vs %+v", ev.Stats, st)
	}
	if len(ev.Stats.Spans) == 0 {
		t.Error("stdio stats reply carries no span aggregates")
	}
	c.shutdown()
}

// TestMetricsSurface checks the /metrics export: pool instruments,
// jobs_total with its three labels, the duration histogram, cache
// singleflight waits and Go runtime stats.
func TestMetricsSurface(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	runJob(t, s, estimateSpec())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"edn_serve_queue_depth 0",
		"edn_serve_busy_workers 0",
		`edn_serve_jobs_total{mode="estimate",engine="edn",outcome="ok"} 1`,
		"# TYPE edn_serve_job_duration_seconds histogram",
		`edn_serve_job_duration_seconds_bucket{le="+Inf"} 1`,
		"edn_serve_job_duration_seconds_count 1",
		"edn_serve_cache_singleflight_waits_total 0",
		`edn_serve_span_count_total{stage="execute"} 1`,
		"edn_go_goroutines",
		"edn_go_heap_alloc_bytes",
		"edn_go_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// After a failure and a cancellation too, the totals are the
	// jobs_total samples summed by outcome, and every finished job is
	// one duration observation.
	if err := s.Execute(context.Background(), "nope", edn.JobSpec{Mode: "nope"}, func(serve.Event) {}); err == nil {
		t.Fatal("a job of an unknown mode succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Execute(ctx, "gone", estimateSpec(), func(serve.Event) {}) //nolint:errcheck // cancelled or run, both are counted
	body = httpGet(t, srv.URL+"/metrics")
	byOutcome := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "edn_serve_jobs_total{"); ok {
			labels, value, _ := strings.Cut(rest, "} ")
			_, out, _ := strings.Cut(labels, `outcome="`)
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("bad jobs_total sample %q", line)
			}
			byOutcome[strings.TrimSuffix(out, `"`)] += v
		}
	}
	var finished float64
	for out, total := range map[string]string{"ok": "completed", "failed": "failed", "cancelled": "cancelled"} {
		got := metricValue(t, body, "edn_serve_jobs_"+total+"_total")
		if got != byOutcome[out] {
			t.Errorf("edn_serve_jobs_%s_total %v, jobs_total by outcome %q sums to %v", total, got, out, byOutcome[out])
		}
		finished += got
	}
	if got := metricValue(t, body, "edn_serve_job_duration_seconds_count"); got != finished || finished != 3 {
		t.Errorf("duration count %v, finished jobs %v, want 3", got, finished)
	}
}

// metricValue returns the value of the unlabelled sample name in a
// Prometheus text body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestPprofGate checks /debug/pprof/ is mounted only behind the
// option.
func TestPprofGate(t *testing.T) {
	off := httptest.NewServer(serve.New(serve.Options{}).Handler())
	defer off.Close()
	on := httptest.NewServer(serve.New(serve.Options{Pprof: true}).Handler())
	defer on.Close()

	if code := httpStatus(t, off.URL+"/debug/pprof/"); code != 404 {
		t.Errorf("pprof disabled but /debug/pprof/ = %d", code)
	}
	if code := httpStatus(t, on.URL+"/debug/pprof/"); code != 200 {
		t.Errorf("pprof enabled but /debug/pprof/ = %d", code)
	}
	body := httpGet(t, on.URL+"/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}
