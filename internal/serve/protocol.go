package serve

import "edn"

// The wire protocol is JSON lines in both directions, over stdio or an
// HTTP chunked response — the shape an external system-level simulator
// (the uPIMulator/BookSim2 co-simulation arrangement) or a sweep
// harness scripts against without linking Go.
//
// Client → server, exactly one Request per line (an unknown field, in
// the request or its spec, or anything after the Request is a "bad
// request" error event, under the request's id when it can be read):
//
//	{"id":"j1","op":"run","spec":{...}}   run a JobSpec; events follow
//	{"id":"j1","op":"explain","spec":{...}} run with a latency-anatomy
//	                                      report (an explain section is
//	                                      injected when the spec has none)
//	{"id":"j1","op":"cancel"}             cancel the job named id
//	{"id":"p1","op":"ping"}               liveness check
//	{"id":"s1","op":"stats"}              scheduler + cache snapshot
//	{"op":"shutdown"}                     cancel everything and exit
//
// Server → client, one Event per line. A run produces "accepted" when
// the request is parsed and queued, zero or more "point" events as
// sweep points complete (index/total/point), and exactly one terminal
// "result" or "error". Per-job Seq increases by one per event, so a
// client can detect drops; events of concurrent jobs interleave and
// are distinguished by ID.
type Request struct {
	// ID names the job (op run/explain/cancel) or correlates the reply
	// (other ops). Run requests without an ID are assigned one.
	ID string `json:"id,omitempty"`
	// Op is run, explain, cancel, ping, stats or shutdown.
	Op string `json:"op"`
	// Spec is the job to run (op run/explain only).
	Spec *edn.JobSpec `json:"spec,omitempty"`
}

// Event is one server reply line; see Request for the grammar.
type Event struct {
	ID    string `json:"id,omitempty"`
	Seq   int    `json:"seq"`
	Event string `json:"event"` // accepted, point, result, error, cancelled, pong, stats, bye

	// Point events: the index-th of total sweep points, carrying the
	// same result struct the final JobResult aggregates.
	Index int `json:"index,omitempty"`
	Total int `json:"total,omitempty"`
	Point any `json:"point,omitempty"`

	// Terminal events: exactly one of Result (the full JobResult) or
	// Error per run.
	Result *edn.JobResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`

	// Spans is the job's completed span tree (terminal events, span
	// tracing enabled): queue wait, validation, table builds with cache
	// verdicts, per-shard execution, merge, serialization. Spans ride
	// beside Result, never inside it — a traced job's Result is
	// byte-identical to an untraced one's.
	Spans *edn.Span `json:"spans,omitempty"`

	// Explain is the job's latency-anatomy report (terminal result
	// events of jobs whose spec carries an explain section): per-stage
	// wait/block/service attribution, switch blame, congestion trees,
	// and the closed-loop request split. Like Spans, it rides beside
	// Result, never inside it — an explained job's Result is
	// byte-identical to an unexplained one's.
	Explain *edn.AnatomyReport `json:"explain,omitempty"`

	// Stats events.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is a point-in-time snapshot of the job ledger and the cache.
// Every snapshot balances: Accepted = Completed + Failed + Cancelled +
// QueueDepth + BusyWorkers.
type Stats struct {
	// Accepted counts every job the server registered.
	Accepted int64 `json:"accepted"`
	// Running is the number of live jobs, queued or executing:
	// QueueDepth + BusyWorkers.
	Running int `json:"running"`
	// Completed, Failed and Cancelled count finished jobs by outcome
	// (ok, failed, cancelled): the edn_serve_jobs_total samples summed
	// by their outcome label. A finished job has freed its worker slot
	// before its terminal event is emitted.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Workers bounds the jobs executing at once.
	Workers int `json:"workers"`
	// QueueDepth counts live jobs waiting for a worker slot, and
	// BusyWorkers live jobs holding one (at most Workers).
	QueueDepth    int                    `json:"queue_depth"`
	BusyWorkers   int                    `json:"busy_workers"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Cache         edn.GeometryCacheStats `json:"cache"`
	// Spans aggregates the span trees of every finished job by stage
	// name (sorted), the service-level view of where job time goes.
	Spans []SpanStat `json:"spans,omitempty"`
}

// SpanStat folds every completed job's spans of one stage name.
type SpanStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MaxNS   int64  `json:"max_ns"`
}
