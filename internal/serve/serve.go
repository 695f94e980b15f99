// Package serve is the long-lived simulation service behind the
// edn serve daemon: a scheduler that runs edn.JobSpec jobs on a
// bounded worker pool, streams incremental per-point results as they
// complete, and keeps one shared edn.GeometryCache across requests so
// repeated jobs on the same geometry skip table and mask construction.
// Results are bit-for-bit those of edn.Run without the cache — caching
// and streaming are execution details, never measurement details.
//
// The same Server serves both transports: a JSON-line conversation
// over an io.Reader/Writer pair (ServeStdio) and an HTTP API
// (Handler). See protocol.go for the wire grammar.
//
// Observability follows the repo's observation-never-perturbs rule at
// the service level: every job records a deterministic span tree
// (queue wait, validation, builds with cache verdicts, shards, merge,
// serialization) that rides beside the result, never inside it; live
// counters/gauges/histograms cover the pool and the cache on /metrics;
// and an optional slog logger receives one structured completion
// record per job. All three are additive — disable them all and the
// event stream is unchanged byte for byte.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"edn"
	"edn/internal/probe"
)

// Options configure a Server.
type Options struct {
	// Workers bounds concurrently running jobs (0 selects GOMAXPROCS).
	// Jobs past the bound queue in arrival order.
	Workers int
	// CacheBytes budgets the shared geometry cache (0 selects the
	// 256 MiB default).
	CacheBytes int64
	// DisableSpans turns off per-job span tracing. Tracing is
	// observation-only — results are byte-identical either way — so the
	// only reason to disable it is to shave the spans field off the
	// wire.
	DisableSpans bool
	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// handler.
	Pprof bool
	// Log, when non-nil, receives one structured completion record per
	// job (id, mode, engine, outcome, durations) plus lifecycle notes.
	Log *slog.Logger
}

// Server schedules JobSpec runs. Safe for concurrent use by multiple
// transport goroutines.
type Server struct {
	workers      int
	cache        *edn.GeometryCache
	sem          chan struct{}
	start        time.Time
	disableSpans bool
	pprof        bool
	log          *slog.Logger

	// Live pool instruments, exported on /metrics and snapshotted into
	// Stats.
	live   *probe.Metrics
	gQueue *probe.Gauge
	gBusy  *probe.Gauge
	hDur   *probe.LiveHistogram

	mu        sync.Mutex
	jobs      map[string]context.CancelFunc
	nextID    int64
	accepted  int64
	completed int64
	failed    int64
	cancelled int64
	spanAgg   map[string]*SpanStat
}

// jobDurationBounds bucket the job-duration histogram: microjobs to
// minute-long sweeps.
var jobDurationBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60}

// New returns an idle server; it holds no goroutines of its own, the
// transports drive it.
func New(o Options) *Server {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	live := probe.NewMetrics()
	return &Server{
		workers:      w,
		cache:        edn.NewGeometryCache(o.CacheBytes),
		sem:          make(chan struct{}, w),
		start:        time.Now(),
		disableSpans: o.DisableSpans,
		pprof:        o.Pprof,
		log:          o.Log,
		live:         live,
		gQueue:       live.Gauge("edn_serve_queue_depth"),
		gBusy:        live.Gauge("edn_serve_busy_workers"),
		hDur:         live.Histogram("edn_serve_job_duration_seconds", jobDurationBounds),
		jobs:         make(map[string]context.CancelFunc),
		spanAgg:      make(map[string]*SpanStat),
	}
}

// Cache exposes the shared geometry cache (for tests and stats).
func (s *Server) Cache() *edn.GeometryCache { return s.cache }

// Stats snapshots the scheduler and cache counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Accepted:      s.accepted,
		Running:       len(s.jobs),
		Completed:     s.completed,
		Failed:        s.failed,
		Cancelled:     s.cancelled,
		Workers:       s.workers,
		QueueDepth:    int(s.gQueue.Value()),
		BusyWorkers:   int(s.gBusy.Value()),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.cache.Stats(),
	}
	if len(s.spanAgg) > 0 {
		st.Spans = make([]SpanStat, 0, len(s.spanAgg))
		for _, agg := range s.spanAgg {
			st.Spans = append(st.Spans, *agg)
		}
		sort.Slice(st.Spans, func(i, j int) bool { return st.Spans[i].Name < st.Spans[j].Name })
	}
	return st
}

// assignID returns id, or a fresh "job-N" when the request named none.
func (s *Server) assignID(id string) string {
	if id != "" {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("job-%d", s.nextID)
}

func (s *Server) register(id string, cancel context.CancelFunc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[id]; dup {
		return false
	}
	s.jobs[id] = cancel
	s.accepted++
	return true
}

func (s *Server) unregister(id string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	switch {
	case err == nil:
		s.completed++
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled++
	default:
		s.failed++
	}
}

// outcome names a job's terminal state for metric labels and logs.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "failed"
	}
}

// finishJob records a job's terminal accounting: the jobs_total
// counter (mode x engine x outcome), the duration histogram, the
// span aggregates, and the structured completion log.
func (s *Server) finishJob(id, mode, engine, out string, d time.Duration, span *edn.Span) {
	s.live.Counter("edn_serve_jobs_total",
		probe.Label{Key: "mode", Value: mode},
		probe.Label{Key: "engine", Value: engine},
		probe.Label{Key: "outcome", Value: out}).Inc()
	s.hDur.Observe(d.Seconds())
	if span != nil {
		s.mu.Lock()
		span.Walk(func(_ int, sp *edn.Span) {
			agg := s.spanAgg[sp.Name]
			if agg == nil {
				agg = &SpanStat{Name: sp.Name}
				s.spanAgg[sp.Name] = agg
			}
			agg.Count++
			agg.TotalNS += sp.DurationNS
			if sp.DurationNS > agg.MaxNS {
				agg.MaxNS = sp.DurationNS
			}
		})
		s.mu.Unlock()
	}
	if s.log != nil {
		s.log.Info("job done",
			"id", id, "mode", mode, "engine", engine, "outcome", out,
			"duration_ms", float64(d.Nanoseconds())/1e6)
	}
}

// Cancel cancels the running or queued job named id; false when no
// such job is live.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	cancel, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

// CancelAll cancels every live job (shutdown).
func (s *Server) CancelAll() {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.jobs))
	for _, c := range s.jobs {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Execute runs one job to completion, emitting the run's event stream
// ("accepted", streamed "point"s, then one terminal "result" or
// "error") through emit, which is called sequentially from this
// goroutine. Execute blocks while the worker pool is full — the
// transports call it from a per-job goroutine — and returns the job's
// terminal error, nil on success.
//
// Unless the server was built with DisableSpans, the job records a
// span tree — queue wait, validation, table builds with their cache
// verdicts, per-shard execution, merge, serialization — delivered on
// the terminal event's spans field. Tracing is observation-only: the
// result field is byte-identical with tracing on or off.
func (s *Server) Execute(ctx context.Context, id string, spec edn.JobSpec, emit func(Event)) error {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !s.register(id, cancel) {
		err := fmt.Errorf("duplicate job id %q", id)
		emit(Event{ID: id, Event: "error", Error: err.Error()})
		return err
	}
	seq := 0
	next := func(ev Event) {
		ev.ID, ev.Seq = id, seq
		seq++
		emit(ev)
	}
	next(Event{Event: "accepted"})

	engine := spec.Engine
	if engine == "" {
		engine = edn.EngineEDN
	}
	var tr *edn.SpanCollector
	if !s.disableSpans {
		tr = edn.NewSpanCollector("job")
	}
	started := time.Now()

	// One worker slot per running job; queued jobs wait here and can
	// still be cancelled while waiting.
	qs := tr.Start("queue_wait")
	s.gQueue.Add(1)
	select {
	case s.sem <- struct{}{}:
	case <-jctx.Done():
		s.gQueue.Add(-1)
		err := jctx.Err()
		s.unregister(id, err)
		tr.End(qs)
		s.finishJob(id, spec.Mode, engine, outcome(err), time.Since(started), tr.Finish())
		next(Event{Event: "error", Error: err.Error()})
		return err
	}
	s.gQueue.Add(-1)
	tr.End(qs)
	s.gBusy.Add(1)
	defer func() { s.gBusy.Add(-1); <-s.sem }()

	var explain *edn.AnatomyReport
	res, err := edn.RunJob(jctx, spec, edn.RunOptions{
		Cache: s.cache,
		Trace: tr,
		OnPoint: func(index, total int, point any) {
			next(Event{Event: "point", Index: index, Total: total, Point: point})
		},
		OnExplain: func(r *edn.AnatomyReport) { explain = r },
	})
	s.unregister(id, err)
	if err != nil {
		s.finishJob(id, spec.Mode, engine, outcome(err), time.Since(started), tr.Finish())
		next(Event{Event: "error", Error: err.Error()})
		return err
	}
	// Price the result's serialization once, inside its own span; the
	// transport still encodes the event itself, so the measured
	// marshal changes nothing downstream.
	if ss := tr.Start("serialize"); ss != nil {
		b, merr := json.Marshal(res)
		tr.End(ss)
		if merr == nil {
			tr.SetAttr(ss, "bytes", strconv.Itoa(len(b)))
		}
	}
	span := tr.Finish()
	s.finishJob(id, spec.Mode, engine, "ok", time.Since(started), span)
	next(Event{Event: "result", Result: res, Spans: span, Explain: explain})
	return nil
}
