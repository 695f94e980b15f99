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
// serialization) that rides beside the result, never inside it; one
// job ledger — jobs accepted, queued, busy and finished by mode,
// engine and outcome, with their durations and span aggregates — is
// the count that Stats, the stdio stats event and /metrics all render;
// and an optional slog logger receives one structured completion
// record per job. None of them reaches a result: disable spans and the
// log and the event stream is unchanged byte for byte.
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

	// mu guards the job ledger, the one count that Stats, the stdio
	// stats event and /metrics all read. A job enters jobs as queued,
	// turns busy when it takes a worker slot, and leaves in one
	// critical section — before its terminal event is emitted — that
	// frees its slot and files it under jobsTotal, the duration
	// histogram and the span aggregates. So every snapshot balances:
	// accepted = the jobsTotal sum + len(jobs), and len(jobs) = queued +
	// busy.
	mu        sync.Mutex
	jobs      map[string]context.CancelFunc // live jobs, queued or busy
	busy      int
	nextID    int64
	accepted  int64
	jobsTotal map[jobKey]int64
	durCounts []uint64 // per jobDurationBounds bucket, then +Inf
	durSum    float64
	spanAgg   map[string]*SpanStat
}

// jobKey is one edn_serve_jobs_total series.
type jobKey struct{ mode, engine, outcome string }

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
	return &Server{
		workers:      w,
		cache:        edn.NewGeometryCache(o.CacheBytes),
		sem:          make(chan struct{}, w),
		start:        time.Now(),
		disableSpans: o.DisableSpans,
		pprof:        o.Pprof,
		log:          o.Log,
		jobs:         make(map[string]context.CancelFunc),
		jobsTotal:    make(map[jobKey]int64),
		durCounts:    make([]uint64, len(jobDurationBounds)+1),
		spanAgg:      make(map[string]*SpanStat),
	}
}

// Cache exposes the shared geometry cache (for tests and stats).
func (s *Server) Cache() *edn.GeometryCache { return s.cache }

// Stats snapshots the job ledger and the cache counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked reads the ledger into a Stats; s.mu must be held.
func (s *Server) statsLocked() Stats {
	st := Stats{
		Accepted:      s.accepted,
		Running:       len(s.jobs),
		Workers:       s.workers,
		QueueDepth:    len(s.jobs) - s.busy,
		BusyWorkers:   s.busy,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.cache.Stats(),
	}
	for k, n := range s.jobsTotal {
		switch k.outcome {
		case "ok":
			st.Completed += n
		case "failed":
			st.Failed += n
		default:
			st.Cancelled += n
		}
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

// register enters a job in the ledger as queued; false when id is
// already live.
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

// outcome names a job's terminal state for metric labels and logs; it
// is the ledger's only error classifier.
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

// leave takes a finished job off the ledger in one critical section:
// it frees the job's worker slot when busy, and files the job under
// jobs_total (mode x engine x outcome), the duration histogram and the
// span aggregates. Then it writes the structured completion log.
func (s *Server) leave(id, mode, engine string, busy bool, err error, d time.Duration, span *edn.Span) {
	out := outcome(err)
	s.mu.Lock()
	delete(s.jobs, id)
	if busy {
		s.busy--
		<-s.sem // never blocks: the job's own token is in the channel
	}
	s.jobsTotal[jobKey{mode, engine, out}]++
	s.durCounts[sort.SearchFloat64s(jobDurationBounds, d.Seconds())]++
	s.durSum += d.Seconds()
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
// terminal error, nil on success. A panic while the job runs — in the
// measurement or in emitting a point — ends that job alone with an
// "internal error" error event; the server and its other jobs carry on.
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
	select {
	case s.sem <- struct{}{}:
	case <-jctx.Done():
		err := jctx.Err()
		tr.End(qs)
		s.leave(id, spec.Mode, engine, false, err, time.Since(started), tr.Finish())
		next(Event{Event: "error", Error: err.Error()})
		return err
	}
	tr.End(qs)
	s.mu.Lock()
	s.busy++
	s.mu.Unlock()

	var explain *edn.AnatomyReport
	res, err := func() (res *edn.JobResult, err error) {
		// A panicking job fails alone: it becomes this job's error
		// event, and the job still leaves the ledger and frees its
		// slot.
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("internal error: %v", r)
			}
		}()
		res, err = edn.RunJob(jctx, spec, edn.RunOptions{
			Cache: s.cache,
			Trace: tr,
			OnPoint: func(index, total int, point any) {
				next(Event{Event: "point", Index: index, Total: total, Point: point})
			},
			OnExplain: func(r *edn.AnatomyReport) { explain = r },
		})
		if err != nil {
			return nil, err
		}
		// Price the result's serialization once, inside its own span;
		// the transport still encodes the event itself, so the
		// measured marshal changes nothing downstream.
		if ss := tr.Start("serialize"); ss != nil {
			b, merr := json.Marshal(res)
			tr.End(ss)
			if merr == nil {
				tr.SetAttr(ss, "bytes", strconv.Itoa(len(b)))
			}
		}
		return res, nil
	}()
	span := tr.Finish()
	s.leave(id, spec.Mode, engine, true, err, time.Since(started), span)
	if err != nil {
		next(Event{Event: "error", Error: err.Error()})
		return err
	}
	next(Event{Event: "result", Result: res, Spans: span, Explain: explain})
	return nil
}
