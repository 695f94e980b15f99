package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"edn"
	"edn/internal/cliutil"
)

// maxLine bounds one request line, and one HTTP request body; a
// JobSpec is a few hundred bytes, so 16 MiB is generous headroom for
// long fraction/load axes.
const maxLine = 16 << 20

// ServeStdio runs the JSON-line conversation: one Request per line on
// r, one Event per line on w (see protocol.go). Run requests execute
// concurrently on the worker pool while the loop keeps reading, so
// control traffic (ping, stats, cancel) stays responsive during long
// sweeps; event lines of concurrent jobs interleave whole, never
// fragmented. The call returns when r closes, a shutdown request
// arrives (after cancelling and draining live jobs), or ctx is
// cancelled.
func (s *Server) ServeStdio(ctx context.Context, r io.Reader, w io.Writer) error {
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	write := func(ev Event) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(ev) //nolint:errcheck // a broken pipe also ends the read loop
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var jobs sync.WaitGroup
	defer jobs.Wait()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := cliutil.DecodeStrict(bytes.NewReader(line), &req); err != nil {
			// Answer under the request's id when its first value has
			// one, so a client waiting on that id gets its terminal
			// event.
			var head struct {
				ID string `json:"id"`
			}
			json.NewDecoder(bytes.NewReader(line)).Decode(&head) //nolint:errcheck // best effort
			write(Event{ID: head.ID, Event: "error", Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		switch req.Op {
		case "run", "explain":
			if req.Spec == nil {
				write(Event{ID: req.ID, Event: "error", Error: req.Op + " request needs a spec"})
				continue
			}
			id, spec := s.assignID(req.ID), *req.Spec
			if req.Op == "explain" && spec.Explain == nil {
				spec.Explain = &edn.ExplainSpec{}
			}
			jobs.Add(1)
			go func() {
				defer jobs.Done()
				s.Execute(ctx, id, spec, write) //nolint:errcheck // reported in the event stream
			}()
		case "cancel":
			if s.Cancel(req.ID) {
				write(Event{ID: req.ID, Event: "cancelled"})
			} else {
				write(Event{ID: req.ID, Event: "error", Error: fmt.Sprintf("no live job %q", req.ID)})
			}
		case "ping":
			write(Event{ID: req.ID, Event: "pong"})
		case "stats":
			st := s.Stats()
			write(Event{ID: req.ID, Event: "stats", Stats: &st})
		case "shutdown":
			s.CancelAll()
			jobs.Wait()
			write(Event{ID: req.ID, Event: "bye"})
			return nil
		default:
			write(Event{ID: req.ID, Event: "error", Error: fmt.Sprintf("unknown op %q", req.Op)})
		}
	}
	return sc.Err()
}
