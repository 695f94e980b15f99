package simulate

import (
	"errors"
	"strings"
	"testing"
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
