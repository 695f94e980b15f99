package probe

import (
	"encoding/json"
	"fmt"
)

// Event is one step in a sampled packet's (or request's) life. The
// packet engines emit the inject/traverse/block/park/drop/strand/
// deliver family; the closed-loop layer emits the issue/timeout/retry/
// complete/give-up family with Hop.Stage carrying the attempt number
// instead of a network stage.
type Event uint8

const (
	// EvInject: the packet was accepted into the network (entered the
	// stage-1 queue, or latched at an input for depth-0 networks).
	EvInject Event = iota
	// EvTraverse: the packet won arbitration and advanced one stage.
	EvTraverse
	// EvBlock: the packet lost arbitration or found the next buffer
	// full (HoL blocking) and stayed put this cycle.
	EvBlock
	// EvPark: the packet is held because its required wire or terminal
	// is masked dead (only ever emitted under an active fault mask).
	EvPark
	// EvDrop: the packet was discarded (Drop policy loss, which at
	// depth 0 is a circuit-switched request that lost arbitration).
	EvDrop
	// EvStrand: the packet was discarded because churn killed the wire
	// it was queued on (Drop policy only).
	EvStrand
	// EvDeliver: the packet reached its destination terminal.
	EvDeliver
	// EvIssue: a closed-loop request was issued into the forward fabric
	// for the first time.
	EvIssue
	// EvTimeout: the request's deadline passed with no reply.
	EvTimeout
	// EvRetry: the request re-entered the forward fabric after backoff.
	EvRetry
	// EvComplete: the request's reply was delivered to its source.
	EvComplete
	// EvGiveUp: the request exhausted MaxAttempts and was abandoned.
	EvGiveUp

	numEvents = int(EvGiveUp) + 1
)

var eventNames = [numEvents]string{
	"inject", "traverse", "block", "park", "drop", "strand",
	"deliver", "issue", "timeout", "retry", "complete", "giveup",
}

func (e Event) String() string {
	if int(e) < numEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// MarshalJSON renders the event by name so exported traces read the
// same as the CLI dump ("deliver", not 6).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.String())
}

// Terminal reports whether the event ends a trace.
func (e Event) Terminal() bool {
	switch e {
	case EvDrop, EvStrand, EvDeliver, EvComplete, EvGiveUp:
		return true
	}
	return false
}

// Hop is one recorded event. Stage is the network stage the event
// happened at (1-based; 0 means "at the input, before stage 1") —
// except for closed-loop traces, where it is the attempt number.
type Hop struct {
	Cycle int64 `json:"cycle"`
	Stage int   `json:"stage"`
	Event Event `json:"event"`
}

// Trace is one sampled packet's flight record. IDs are 1-based and
// assigned in sampling order, so sorting by ID reproduces the exact
// injection order regardless of how reports were merged. Done is false
// for packets still in flight when the run ended (their record is kept:
// a stuck packet is usually the interesting one).
type Trace struct {
	ID     int64 `json:"id"`
	Input  int   `json:"input"`
	Dest   int   `json:"dest"`
	Inject int64 `json:"inject"`
	Done   bool  `json:"done"`
	Hops   []Hop `json:"hops"`
}

// Latency returns the cycles between injection and the terminal
// deliver/complete hop. The second result is false when the trace
// never completed successfully (dropped, stranded, given up, or still
// in flight).
func (t *Trace) Latency() (float64, bool) {
	if !t.Done || len(t.Hops) == 0 {
		return 0, false
	}
	last := t.Hops[len(t.Hops)-1]
	if last.Event != EvDeliver && last.Event != EvComplete {
		return 0, false
	}
	return float64(last.Cycle - t.Inject), true
}
