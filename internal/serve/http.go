package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"

	"edn"
	"edn/internal/cliutil"
)

// Handler returns the HTTP face of the server:
//
//	POST /v1/jobs        body = exactly one JobSpec JSON document, at
//	                     most 16 MiB (413 beyond), no unknown fields
//	                     and nothing after it (400); the response
//	                     streams the job's event lines as NDJSON
//	                     (accepted, point..., result|error), flushed per
//	                     event so a client sees sweep points live. The
//	                     job id is ?id=... or assigned; closing the
//	                     request cancels the job. Terminal events carry
//	                     the job's span tree unless spans are disabled.
//	POST /v1/explain     same grammar as /v1/jobs, but an explain
//	                     section is injected when the spec carries none,
//	                     so the terminal result event always carries the
//	                     latency-anatomy report on its explain field —
//	                     beside the result, never inside it (the result
//	                     field is byte-identical to a /v1/jobs run).
//	GET  /v1/healthz     {"ok":true}
//	GET  /v1/stats       the Stats snapshot (scheduler, cache, span
//	                     aggregates)
//	GET  /metrics        scheduler + cache + pool + Go runtime counters
//	                     as Prometheus text
//	GET  /debug/pprof/*  net/http/pprof, only when Options.Pprof
//
// The estimate mode rides POST /v1/jobs like every other mode: a
// co-simulating system simulator posts {"mode":"estimate",...} and
// reads the single result event.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleJob(w, r, false)
	})
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		s.handleJob(w, r, true)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats()) //nolint:errcheck
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeMetrics(w) //nolint:errcheck
	})
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, explain bool) {
	var spec edn.JobSpec
	// One body limit for both transports: the stdio line bound.
	if err := cliutil.DecodeStrict(http.MaxBytesReader(w, r.Body, maxLine), &spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad spec: %v", err), code)
		return
	}
	if explain && spec.Explain == nil {
		spec.Explain = &edn.ExplainSpec{}
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := s.assignID(r.URL.Query().Get("id"))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) {
		enc.Encode(ev) //nolint:errcheck // client gone = request context cancelled
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The request context carries client disconnects: closing the
	// response cancels the job.
	s.Execute(r.Context(), id, spec, emit) //nolint:errcheck // reported in the stream
}

// writeMetrics exports the daemon's one metrics surface as Prometheus
// text through the probe registry: the job ledger, read in one
// critical section (job totals, running jobs, queue depth, busy
// workers, jobs by mode x engine x outcome, the job-duration histogram
// and span-stage aggregates), the cache counters, and Go runtime
// stats.
func (s *Server) writeMetrics(w http.ResponseWriter) error {
	reg := edn.NewMetricsRegistry()
	s.mu.Lock()
	st := s.statsLocked()
	for k, n := range s.jobsTotal {
		labels := []edn.MetricLabel{{Key: "mode", Value: k.mode}, {Key: "engine", Value: k.engine}, {Key: "outcome", Value: k.outcome}}
		reg.Add("edn_serve_jobs_total", "counter", labels, float64(n))
	}
	reg.AddHistogram("edn_serve_job_duration_seconds", nil, jobDurationBounds, s.durCounts, s.durSum)
	s.mu.Unlock()
	reg.Add("edn_serve_jobs_accepted_total", "counter", nil, float64(st.Accepted))
	reg.Add("edn_serve_jobs_completed_total", "counter", nil, float64(st.Completed))
	reg.Add("edn_serve_jobs_failed_total", "counter", nil, float64(st.Failed))
	reg.Add("edn_serve_jobs_cancelled_total", "counter", nil, float64(st.Cancelled))
	reg.Add("edn_serve_jobs_running", "gauge", nil, float64(st.Running))
	reg.Add("edn_serve_queue_depth", "gauge", nil, float64(st.QueueDepth))
	reg.Add("edn_serve_busy_workers", "gauge", nil, float64(st.BusyWorkers))
	reg.Add("edn_serve_workers", "gauge", nil, float64(st.Workers))
	reg.Add("edn_serve_uptime_seconds", "gauge", nil, st.UptimeSeconds)
	reg.Add("edn_serve_cache_entries", "gauge", nil, float64(st.Cache.Entries))
	reg.Add("edn_serve_cache_bytes", "gauge", nil, float64(st.Cache.Bytes))
	reg.Add("edn_serve_cache_budget_bytes", "gauge", nil, float64(st.Cache.Budget))
	reg.Add("edn_serve_cache_hits_total", "counter", nil, float64(st.Cache.Hits))
	reg.Add("edn_serve_cache_misses_total", "counter", nil, float64(st.Cache.Misses))
	reg.Add("edn_serve_cache_evictions_total", "counter", nil, float64(st.Cache.Evictions))
	reg.Add("edn_serve_cache_singleflight_waits_total", "counter", nil, float64(st.Cache.SingleflightWaits))
	for _, sp := range st.Spans {
		labels := []edn.MetricLabel{{Key: "stage", Value: sp.Name}}
		reg.Add("edn_serve_span_count_total", "counter", labels, float64(sp.Count))
		reg.Add("edn_serve_span_seconds_total", "counter", labels, float64(sp.TotalNS)/1e9)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Add("edn_go_goroutines", "gauge", nil, float64(runtime.NumGoroutine()))
	reg.Add("edn_go_heap_alloc_bytes", "gauge", nil, float64(ms.HeapAlloc))
	reg.Add("edn_go_heap_objects", "gauge", nil, float64(ms.HeapObjects))
	reg.Add("edn_go_sys_bytes", "gauge", nil, float64(ms.Sys))
	reg.Add("edn_go_alloc_bytes_total", "counter", nil, float64(ms.TotalAlloc))
	reg.Add("edn_go_gc_cycles_total", "counter", nil, float64(ms.NumGC))
	reg.Add("edn_go_gc_pause_seconds_total", "counter", nil, float64(ms.PauseTotalNs)/1e9)
	return reg.WritePrometheus(w)
}
