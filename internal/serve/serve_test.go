package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"edn"
	"edn/internal/serve"
)

func sweepSpec() edn.JobSpec {
	return edn.JobSpec{
		Mode:     edn.JobSaturation,
		Geometry: &edn.GeometrySpec{A: 4, B: 2, C: 2, L: 2},
		Loads:    []float64{0.3, 0.6, 0.9},
		Queue:    &edn.QueueSpec{Depth: 2},
		Sim:      edn.SimSpec{Cycles: 120, Warmup: 20, Seed: 5, Shards: 2},
	}
}

func estimateSpec() edn.JobSpec {
	return edn.JobSpec{
		Mode:     edn.JobEstimate,
		Geometry: &edn.GeometrySpec{A: 4, B: 2, C: 2, L: 2},
		Load:     0.7,
		Estimate: &edn.EstimateSpec{Src: 1, Dst: 5},
		Queue:    &edn.QueueSpec{Depth: 2},
		Sim:      edn.SimSpec{Cycles: 200, Warmup: 20, Seed: 3, Shards: 1},
	}
}

// longSpec is a sweep with enough points that cancellation between
// points is observed promptly.
func longSpec() edn.JobSpec {
	spec := sweepSpec()
	spec.Loads = nil
	for i := 1; i <= 50; i++ {
		spec.Loads = append(spec.Loads, float64(i)/50)
	}
	spec.Sim.Cycles = 2000
	return spec
}

// client drives one stdio conversation against a Server. A pump
// goroutine drains the server's event lines into a buffered channel,
// so the server's writes never block on the test being mid-send — over
// raw unbuffered pipes, a request write and an event write could
// otherwise deadlock each other.
type client struct {
	t     *testing.T
	raw   io.Writer
	enc   *json.Encoder
	lines chan string
	done  chan error
}

func dial(t *testing.T, s *serve.Server) *client {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := s.ServeStdio(context.Background(), inR, outW)
		outW.Close() //nolint:errcheck
		done <- err
	}()
	t.Cleanup(func() { inW.Close() }) //nolint:errcheck
	lines := make(chan string, 4096)
	go func() {
		sc := bufio.NewScanner(outR)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return &client{t: t, raw: inW, enc: json.NewEncoder(inW), lines: lines, done: done}
}

func (c *client) send(req serve.Request) {
	c.t.Helper()
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

func (c *client) recv() serve.Event {
	c.t.Helper()
	line, ok := <-c.lines
	if !ok {
		c.t.Fatal("event stream ended early")
	}
	var ev serve.Event
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		c.t.Fatalf("bad event line %q: %v", line, err)
	}
	return ev
}

// recvUntil reads events until pred accepts one, returning it; every
// event seen on the way is handed to each, if set.
func (c *client) recvUntil(pred func(serve.Event) bool, each func(serve.Event)) serve.Event {
	c.t.Helper()
	for i := 0; i < 1000; i++ {
		ev := c.recv()
		if each != nil {
			each(ev)
		}
		if pred(ev) {
			return ev
		}
	}
	c.t.Fatal("event never arrived")
	return serve.Event{}
}

func (c *client) shutdown() {
	c.t.Helper()
	c.send(serve.Request{Op: "shutdown"})
	ev := c.recvUntil(func(ev serve.Event) bool { return ev.Event == "bye" }, nil)
	if ev.Event != "bye" {
		c.t.Fatalf("want bye, got %+v", ev)
	}
	if err := <-c.done; err != nil {
		c.t.Fatalf("ServeStdio: %v", err)
	}
}

func TestStdioPingStatsShutdown(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	c := dial(t, s)

	c.send(serve.Request{ID: "p1", Op: "ping"})
	if ev := c.recv(); ev.Event != "pong" || ev.ID != "p1" {
		t.Fatalf("want pong p1, got %+v", ev)
	}

	c.send(serve.Request{ID: "s1", Op: "stats"})
	ev := c.recv()
	if ev.Event != "stats" || ev.Stats == nil {
		t.Fatalf("want stats, got %+v", ev)
	}
	if ev.Stats.Workers != 2 || ev.Stats.Accepted != 0 {
		t.Fatalf("fresh server stats off: %+v", *ev.Stats)
	}

	c.send(serve.Request{ID: "x", Op: "warp"})
	if ev := c.recv(); ev.Event != "error" || !strings.Contains(ev.Error, "unknown op") {
		t.Fatalf("want unknown-op error, got %+v", ev)
	}

	c.shutdown()
}

// TestStdioRunStreamsSweep pins the full event grammar of one sweep —
// accepted, one point per load in order, then a result whose JSON is
// byte-identical to a direct edn.Run of the same spec.
func TestStdioRunStreamsSweep(t *testing.T) {
	spec := sweepSpec()
	direct, err := edn.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	s := serve.New(serve.Options{})
	c := dial(t, s)
	c.send(serve.Request{ID: "sweep", Op: "run", Spec: &spec})

	ev := c.recv()
	if ev.Event != "accepted" || ev.ID != "sweep" || ev.Seq != 0 {
		t.Fatalf("want accepted seq 0, got %+v", ev)
	}
	for i := range spec.Loads {
		ev = c.recv()
		if ev.Event != "point" || ev.Index != i || ev.Total != len(spec.Loads) || ev.Seq != i+1 {
			t.Fatalf("point %d: got %+v", i, ev)
		}
		if ev.Point == nil {
			t.Fatalf("point %d carries no payload", i)
		}
	}
	ev = c.recv()
	if ev.Event != "result" || ev.Result == nil || ev.Seq != len(spec.Loads)+1 {
		t.Fatalf("want terminal result, got %+v", ev)
	}
	got, err := json.Marshal(ev.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon result differs from direct run:\n daemon: %s\n direct: %s", got, want)
	}

	c.send(serve.Request{ID: "s", Op: "stats"})
	st := c.recvUntil(func(ev serve.Event) bool { return ev.Event == "stats" }, nil)
	if st.Stats.Completed != 1 || st.Stats.Accepted != 1 {
		t.Fatalf("stats after one job: %+v", *st.Stats)
	}
	c.shutdown()
}

// TestStdioCancel cancels one queued and one running job: with a single
// worker the second job is parked before the pool, so both cancellation
// paths (waiting for a slot, between sweep points) are exercised.
func TestStdioCancel(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	c := dial(t, s)

	long := longSpec()
	c.send(serve.Request{ID: "j1", Op: "run", Spec: &long})
	if ev := c.recv(); ev.Event != "accepted" || ev.ID != "j1" {
		t.Fatalf("want j1 accepted, got %+v", ev)
	}
	c.send(serve.Request{ID: "j2", Op: "run", Spec: &long})
	c.recvUntil(func(ev serve.Event) bool { return ev.ID == "j2" && ev.Event == "accepted" }, nil)

	// j2 is queued behind j1; cancelling it must produce the ack and
	// j2's terminal error without waiting for j1.
	// The ack (from the request loop) and j2's terminal error (from the
	// job goroutine) may interleave in either order.
	c.send(serve.Request{ID: "j2", Op: "cancel"})
	sawAck, sawErr := false, false
	c.recvUntil(func(ev serve.Event) bool {
		if ev.ID == "j2" && ev.Event == "cancelled" {
			sawAck = true
		}
		if ev.ID == "j2" && ev.Event == "error" {
			sawErr = true
		}
		return sawAck && sawErr
	}, nil)

	c.send(serve.Request{ID: "j1", Op: "cancel"})
	c.recvUntil(func(ev serve.Event) bool { return ev.ID == "j1" && ev.Event == "error" }, nil)

	// A second cancel finds nothing live.
	c.send(serve.Request{ID: "j1", Op: "cancel"})
	ev := c.recvUntil(func(ev serve.Event) bool { return ev.Event == "error" && strings.Contains(ev.Error, "no live job") }, nil)
	if ev.ID != "j1" {
		t.Fatalf("stale cancel: %+v", ev)
	}

	c.send(serve.Request{ID: "s", Op: "stats"})
	st := c.recvUntil(func(ev serve.Event) bool { return ev.Event == "stats" }, nil)
	if st.Stats.Cancelled != 2 {
		t.Fatalf("want 2 cancelled, got %+v", *st.Stats)
	}
	c.shutdown()
}

func TestStdioBadRequests(t *testing.T) {
	s := serve.New(serve.Options{})
	c := dial(t, s)

	if _, err := io.WriteString(c.raw, "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	if ev := c.recv(); ev.Event != "error" || !strings.Contains(ev.Error, "bad request") {
		t.Fatalf("want bad-request error, got %+v", ev)
	}

	c.send(serve.Request{ID: "r", Op: "run"})
	if ev := c.recv(); ev.Event != "error" || !strings.Contains(ev.Error, "needs a spec") {
		t.Fatalf("want missing-spec error, got %+v", ev)
	}

	bad := sweepSpec()
	bad.Loads = nil
	c.send(serve.Request{ID: "r2", Op: "run", Spec: &bad})
	ev := c.recvUntil(func(ev serve.Event) bool { return ev.ID == "r2" && ev.Event == "error" }, nil)
	if ev.Error == "" {
		t.Fatalf("invalid spec produced no error: %+v", ev)
	}

	c.shutdown()
}

func TestHTTPEndpoints(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// A streamed sweep over HTTP matches a direct run byte for byte.
	spec := sweepSpec()
	direct, err := edn.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	events := postJob(t, ts.URL+"/v1/jobs?id=h1", spec)
	if events[0].Event != "accepted" || events[0].ID != "h1" {
		t.Fatalf("first event: %+v", events[0])
	}
	points := 0
	for _, ev := range events {
		if ev.Event == "point" {
			points++
		}
	}
	if points != len(spec.Loads) {
		t.Fatalf("want %d streamed points, got %d", len(spec.Loads), points)
	}
	last := events[len(events)-1]
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("terminal event: %+v", last)
	}
	got, _ := json.Marshal(last.Result)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result differs from direct run:\n http: %s\n direct: %s", got, want)
	}

	// The one-shot estimate: a co-simulator's question in one request.
	est := postJob(t, ts.URL+"/v1/jobs", estimateSpec())
	lastE := est[len(est)-1]
	if lastE.Event != "result" || lastE.Result == nil || lastE.Result.Estimate == nil {
		t.Fatalf("estimate terminal event: %+v", lastE)
	}
	if !lastE.Result.Estimate.SrcLive || !lastE.Result.Estimate.DstReachable || lastE.Result.Estimate.LatencyP50 <= 0 {
		t.Fatalf("estimate result implausible: %+v", *lastE.Result.Estimate)
	}

	// Unknown fields and invalid specs are 400s, not stream errors.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"mode":"latency","warp":9}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: want 400, got %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"mode":"latency"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: want 400, got %d", resp.StatusCode)
	}

	var st serve.Stats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if st.Completed != 2 || st.Accepted != 2 {
		t.Fatalf("stats after two jobs: %+v", st)
	}
	if st.Cache.Hits < 1 {
		t.Fatalf("second job on the same geometry should hit the cache: %+v", st.Cache)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	for _, metric := range []string{
		"edn_serve_jobs_accepted_total 2",
		"edn_serve_jobs_completed_total 2",
		"edn_serve_cache_hits_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, body)
		}
	}
}

func postJob(t *testing.T, url string, spec edn.JobSpec) []serve.Event {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	return events
}

// TestExecuteConcurrentStress runs a mixed fleet of jobs over a small
// worker pool — the -race exercise for the scheduler, the shared cache
// and the per-job event sequencing — and pins that identical specs
// produce identical results regardless of scheduling order.
func TestExecuteConcurrentStress(t *testing.T) {
	s := serve.New(serve.Options{Workers: 4})
	ctx := context.Background()

	avail := edn.JobSpec{
		Mode:     edn.JobAvailability,
		Geometry: &edn.GeometrySpec{A: 4, B: 2, C: 2, L: 2},
		Avail:    &edn.AvailabilitySpec{Fractions: []float64{0.1, 0.3}, Load: 0.9},
		Queue:    &edn.QueueSpec{Depth: 2},
		Sim:      edn.SimSpec{Cycles: 120, Warmup: 20, Seed: 2, Shards: 2},
	}
	specs := []edn.JobSpec{sweepSpec(), estimateSpec(), avail}

	type outcome struct {
		spec   int
		events []serve.Event
		err    error
	}
	const perSpec = 4
	results := make([]outcome, len(specs)*perSpec)
	// A poller reads the ledger until the fleet ends: every snapshot
	// balances and never counts more busy workers than the pool has.
	fleetDone, polled := make(chan struct{}), make(chan int)
	go func() {
		for n := 1; ; n++ {
			checkBalance(t, "stress", s.Stats())
			select {
			case <-fleetDone:
				polled <- n
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mu sync.Mutex
			o := outcome{spec: i % len(specs)}
			o.err = s.Execute(ctx, fmt.Sprintf("stress-%d", i), specs[o.spec], func(ev serve.Event) {
				mu.Lock()
				o.events = append(o.events, ev)
				mu.Unlock()
			})
			results[i] = o
		}(i)
	}
	wg.Wait()
	close(fleetDone)
	t.Logf("%d ledger snapshots balanced", <-polled)

	// Every job completed; per-job seq is gapless; identical specs →
	// identical marshaled results.
	canonical := make(map[int][]byte)
	for i, o := range results {
		if o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
		for seq, ev := range o.events {
			if ev.Seq != seq {
				t.Fatalf("job %d: event %d has seq %d", i, seq, ev.Seq)
			}
		}
		last := o.events[len(o.events)-1]
		if last.Event != "result" || last.Result == nil {
			t.Fatalf("job %d terminal: %+v", i, last)
		}
		blob, err := json.Marshal(last.Result)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := canonical[o.spec]; ok {
			if !bytes.Equal(blob, prev) {
				t.Fatalf("job %d: same spec, different result under concurrency", i)
			}
		} else {
			canonical[o.spec] = blob
		}
	}
	st := s.Stats()
	if st.Completed != int64(len(results)) {
		t.Fatalf("want %d completed, got %+v", len(results), st)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("repeated specs never hit the shared cache: %+v", st.Cache)
	}
}

// TestDuplicateJobID pins that a live id cannot be claimed twice.
func TestDuplicateJobID(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	long := longSpec()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- s.Execute(ctx, "dup", long, func(ev serve.Event) {
			if first {
				first = false
				close(started)
			}
		})
	}()
	<-started

	err := s.Execute(ctx, "dup", sweepSpec(), func(serve.Event) {})
	if err == nil || !strings.Contains(err.Error(), "duplicate job id") {
		t.Fatalf("want duplicate-id error, got %v", err)
	}

	if !s.Cancel("dup") {
		t.Fatal("live job not cancellable")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled job returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job never returned")
	}
}

// TestExecuteRecoversPanic pins panic isolation: a job that panics
// mid-run (here in its point callback) returns an error and ends with
// exactly one "error" event, and its worker slot and id are released,
// so the next job on the one-worker server completes.
func TestExecuteRecoversPanic(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	var terminal []serve.Event
	err := s.Execute(context.Background(), "boom", sweepSpec(), func(ev serve.Event) {
		switch ev.Event {
		case "point":
			panic("emit exploded")
		case "result", "error":
			terminal = append(terminal, ev)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "internal error: emit exploded") {
		t.Fatalf("want an internal error, got %v", err)
	}
	if len(terminal) != 1 || terminal[0].Event != "error" || terminal[0].Error != err.Error() {
		t.Fatalf("want one error event carrying the error, got %+v", terminal)
	}

	done := make(chan serve.Event, 1)
	go func() {
		var term serve.Event
		s.Execute(context.Background(), "boom", estimateSpec(), func(ev serve.Event) { //nolint:errcheck // checked via the event
			if ev.Event == "result" || ev.Event == "error" {
				term = ev
			}
		})
		done <- term
	}()
	select {
	case ev := <-done:
		if ev.Event != "result" {
			t.Fatalf("job after the panic: want a result, got %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job after the panic never ran: the worker slot leaked")
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 || st.Running != 0 {
		t.Fatalf("want 1 failed, 1 completed, 0 running, got %+v", st)
	}
}

// checkBalance reports a Stats snapshot whose ledger does not balance:
// every accepted job is finished, queued or busy, the running jobs are
// the queued and the busy ones, and no more workers are busy than the
// pool has.
func checkBalance(t *testing.T, name string, st serve.Stats) {
	t.Helper()
	live := int64(st.QueueDepth + st.BusyWorkers)
	if st.Accepted != st.Completed+st.Failed+st.Cancelled+live || int64(st.Running) != live ||
		st.QueueDepth < 0 || st.BusyWorkers < 0 || st.BusyWorkers > st.Workers {
		t.Errorf("%s: unbalanced ledger %+v", name, st)
	}
}

// TestLedgerBalancesAtTerminalEvent pins the ledger at the moment a job
// ends, on a one-worker server: a Stats snapshot taken inside the
// terminal event of an ok job, a job that fails at run time, a job
// whose point emit panics and a job cancelled while queued behind the
// ok job balances, and the ending job has already freed its worker
// slot — only the holder of the one worker may count as busy.
func TestLedgerBalancesAtTerminalEvent(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	ctx := context.Background()
	atEnd := func(name string, busy int) func(serve.Event) {
		return func(ev serve.Event) {
			if ev.Event != "result" && ev.Event != "error" {
				return
			}
			st := s.Stats()
			checkBalance(t, name, st)
			if st.BusyWorkers != busy {
				t.Errorf("%s: %d busy workers inside its terminal event, want %d", name, st.BusyWorkers, busy)
			}
		}
	}

	held, okEnd, queuedEnd := false, atEnd("ok job", 0), atEnd("queued job", 1)
	err := s.Execute(ctx, "ok", sweepSpec(), func(ev serve.Event) {
		if ev.Event == "point" && !held {
			held = true
			cancelQueued(t, s, "queued", estimateSpec(), queuedEnd)
		}
		okEnd(ev)
	})
	if err != nil || !held {
		t.Fatalf("ok job: err %v, held %v", err, held)
	}
	if err := s.Execute(ctx, "failing", edn.JobSpec{Mode: "nope"}, atEnd("failing job", 0)); err == nil {
		t.Fatal("a job of an unknown mode succeeded")
	}
	panicEnd := atEnd("panicking job", 0)
	err = s.Execute(ctx, "panicking", sweepSpec(), func(ev serve.Event) {
		if ev.Event == "point" {
			panic("emit exploded")
		}
		panicEnd(ev)
	})
	if err == nil {
		t.Fatal("a panicking job succeeded")
	}
	st := s.Stats()
	checkBalance(t, "idle", st)
	if st.Completed != 1 || st.Failed != 2 || st.Cancelled != 1 || st.Running != 0 {
		t.Fatalf("want 1 completed, 2 failed, 1 cancelled, 0 running, got %+v", st)
	}
}

// spaces is an endless stream of JSON white space.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPStrictBody pins the HTTP request decoder: a body past the
// 16 MiB line bound is cut off with 413 instead of being read to its
// end, and the server keeps answering; a spec followed by anything but
// white space is a 400, never a job.
func TestHTTPStrictBody(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		return resp.StatusCode
	}

	if code := post(io.LimitReader(spaces{}, 16<<20+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: want 413, got %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz after an oversized body: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after an oversized body: %d", resp.StatusCode)
	}

	blob, err := json.Marshal(estimateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if code := post(bytes.NewReader(append(blob, " trailing garbage {\"x\":"...))); code != http.StatusBadRequest {
		t.Errorf("trailing data: want 400, got %d", code)
	}
	if code := post(bytes.NewReader(append(blob, "\n\t "...))); code != http.StatusOK {
		t.Errorf("trailing white space: want 200, got %d", code)
	}
	if st := s.Stats(); st.Accepted != 1 {
		t.Errorf("want only the well-formed body accepted, stats %+v", st)
	}
}

// TestStdioStrictRequest pins the stdio request decoder: a misspelled
// spec field is an error event under the request's id, not a job run
// with the field's default, and the session keeps answering.
func TestStdioStrictRequest(t *testing.T) {
	s := serve.New(serve.Options{})
	c := dial(t, s)
	blob, err := json.Marshal(estimateSpec())
	if err != nil {
		t.Fatal(err)
	}
	typo := strings.Replace(string(blob), `"cycles"`, `"cylces"`, 1)
	if typo == string(blob) {
		t.Fatal("spec JSON has no cycles field to misspell")
	}
	if _, err := fmt.Fprintf(c.raw, `{"id":"typo","op":"run","spec":%s}`+"\n", typo); err != nil {
		t.Fatal(err)
	}
	if ev := c.recv(); ev.Event != "error" || ev.ID != "typo" || !strings.Contains(ev.Error, "cylces") {
		t.Fatalf("want an error for job typo naming the misspelled field, got %+v", ev)
	}
	if _, err := io.WriteString(c.raw, `{"id":"p","op":"ping"} {"op":"shutdown"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if ev := c.recv(); ev.Event != "error" || ev.ID != "p" || !strings.Contains(ev.Error, "bad request") {
		t.Fatalf("want a bad-request error for p, first of two requests on one line, got %+v", ev)
	}
	c.send(serve.Request{ID: "p", Op: "ping"})
	if ev := c.recv(); ev.Event != "pong" || ev.ID != "p" {
		t.Fatalf("want pong, got %+v", ev)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Errorf("a rejected line ran a job: %+v", st)
	}
	c.shutdown()
}
