package simulate

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"edn/internal/anatomy"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

// TestRunShardsRecoversPanic pins that a panicking shard fails its
// measurement instead of the process: the panic comes back as that
// shard's error, with its value and stack, and errors are reported in
// shard order whatever order the goroutines finished in.
func TestRunShardsRecoversPanic(t *testing.T) {
	err := runShards(Options{Cycles: 10}, 3, func(w, cycles int) error {
		switch w {
		case 1:
			panic("shard exploded")
		case 2:
			return errors.New("later shard failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("a panicking shard returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 1 panicked: shard exploded") {
		t.Fatalf("want shard 1's panic first, got %q", msg)
	}
	if !strings.Contains(msg, "runtime/debug.Stack") {
		t.Errorf("panic error carries no stack: %q", msg)
	}
}

// TestObserveStartsBeforeMerge pins that a probed point's observation
// rides on shard 0, not on a run after the merge: its "observe" stage
// starts before the "merge" stage does, yet is filed after it, and the
// anatomy report reaches OnAnatomy once, after the merge, before the
// observe stage is filed.
func TestObserveStartsBeforeMerge(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []string
	starts := map[string]time.Time{}
	opts := Options{Cycles: 400, Warmup: 50, Seed: 3,
		Probe:   observeProbeOptions(),
		Anatomy: &anatomy.Options{TopK: 2},
		OnAnatomy: func(*anatomy.Report) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, "anatomy")
		},
		OnStage: func(stage string, _, _ int, start time.Time, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, stage)
			starts[stage] = start
		},
	}
	res, err := SaturationPoint(EDN{Config: cfg, Queue: queuesim.Options{Depth: 2}}, 0.8, 0, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed == nil {
		t.Fatal("probed point carries no report")
	}
	if got := strings.Join(events, ","); got != "shard,shard,merge,anatomy,observe" {
		t.Fatalf("stage order %q, want shard,shard,merge,anatomy,observe", got)
	}
	if !starts["observe"].Before(starts["merge"]) {
		t.Fatalf("observe started at %v, not before merge at %v", starts["observe"], starts["merge"])
	}
}
