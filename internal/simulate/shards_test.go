package simulate

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	err := runShards(Options{Cycles: 10}, 3, nil, func(w, cycles int) error {
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

// withProcs runs the rest of the test under GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestObserveStartsBeforeMerge pins that a probed point's observation
// pass runs inside the point's worker pool, not after the merge: its
// "observe" stage starts before the "merge" stage does, yet is filed
// after it, and the anatomy report reaches OnAnatomy once, after the
// merge, before the observe stage is filed.
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

// TestRunShardsOverlapsObservation pins that at two shards the
// observation runs beside the shards and starts at once: each shard
// waits for the observation to start and the observation waits for
// shard 1, which only a concurrent schedule that lists the observation
// right after shard 0 satisfies.
func TestRunShardsOverlapsObservation(t *testing.T) {
	withProcs(t, 2)
	shardStarted, obsStarted := make(chan struct{}), make(chan struct{})
	await := func(ch <-chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("%s never started", what)
		}
	}
	observe := func() error {
		close(obsStarted)
		return await(shardStarted, "shard 1")
	}
	err := runShards(Options{Cycles: 10}, 2, observe, func(w, _ int) error {
		if w == 1 {
			close(shardStarted)
		}
		return await(obsStarted, "the observation")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunShardsObservationOrder pins that a single shard gets one
// worker whatever GOMAXPROCS is, so its observation runs after shard 0,
// never beside it.
func TestRunShardsObservationOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			var mu sync.Mutex
			var order []string
			var busy atomic.Bool
			record := func(name string) error {
				if busy.Swap(true) {
					return fmt.Errorf("%s ran beside another task", name)
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				time.Sleep(5 * time.Millisecond) // give a concurrent task the chance to show
				busy.Store(false)
				return nil
			}
			err := runShards(Options{Cycles: 30}, 1, func() error { return record("obs") },
				func(w, _ int) error { return record(fmt.Sprint(w)) })
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, ","); got != "0,obs" {
				t.Fatalf("task order %s, want 0,obs", got)
			}
		})
	}
}

// TestRunShardsObservationErrors pins how the observation's failures
// surface: its error or panic (with the stack) fails the point, but a
// failing shard's error outranks it.
func TestRunShardsObservationErrors(t *testing.T) {
	withProcs(t, 2)
	errObs, errShard := errors.New("observation failed"), errors.New("shard failed")
	ok := func(int, int) error { return nil }
	err := runShards(Options{Cycles: 10}, 2, func() error { return errObs }, ok)
	if !errors.Is(err, errObs) {
		t.Errorf("failing observation: got %v", err)
	}
	err = runShards(Options{Cycles: 10}, 2, func() error { panic("observer exploded") }, ok)
	if err == nil || !strings.Contains(err.Error(), "observation panicked: observer exploded") ||
		!strings.Contains(err.Error(), "runtime/debug.Stack") {
		t.Errorf("panicking observation: got %v", err)
	}
	err = runShards(Options{Cycles: 10}, 2, func() error { return errObs }, func(w, _ int) error {
		if w == 1 {
			return errShard
		}
		return nil
	})
	if !errors.Is(err, errShard) {
		t.Errorf("a failing shard must outrank the observation: got %v", err)
	}
}
