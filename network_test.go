package edn

import (
	"strings"
	"testing"
	"testing/quick"

	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

func mustNet(t *testing.T, a, b, c, l int) *Network {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSingleMessageAlwaysDelivered(t *testing.T) {
	// Theorem 1: with no contention a message reaches any destination.
	nets := []*Network{
		mustNet(t, 4, 2, 2, 2),
		mustNet(t, 8, 2, 4, 2),
		mustNet(t, 8, 4, 2, 3),
		mustNet(t, 16, 4, 4, 2),
		mustNet(t, 4, 4, 1, 3), // delta
		mustNet(t, 4, 8, 2, 2), // expanding
		mustNet(t, 8, 2, 2, 2), // contracting
	}
	for _, n := range nets {
		cfg := n.Config()
		dest := make([]int, cfg.Inputs())
		for src := 0; src < cfg.Inputs(); src++ {
			for d := 0; d < cfg.Outputs(); d++ {
				for i := range dest {
					dest[i] = NoRequest
				}
				dest[src] = d
				out, stats, err := n.RouteCycle(dest)
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				if !out[src].Delivered() || out[src].Output != d {
					t.Fatalf("%v: %d->%d not delivered: %+v", cfg, src, d, out[src])
				}
				if stats.Offered != 1 || stats.Delivered != 1 || stats.BlockedTotal() != 0 {
					t.Fatalf("%v: stats %+v", cfg, stats)
				}
			}
		}
	}
}

func TestRouteCycleValidation(t *testing.T) {
	n := mustNet(t, 16, 4, 4, 2)
	if _, _, err := n.RouteCycle(make([]int, 3)); err == nil {
		t.Error("expected length error")
	}
	bad := make([]int, n.Config().Inputs())
	bad[0] = n.Config().Outputs()
	if _, _, err := n.RouteCycle(bad); err == nil {
		t.Error("expected destination range error")
	}
}

// shortArbiter leaves the last entry of its order unwritten: the
// in-place form of an order one entry short. Its other entries are
// 1, 2, ..., so a zeroed buffer's last 0 would complete them into a
// permutation.
type shortArbiter struct{}

func (shortArbiter) OrderInto(order []int) {
	for i := range order[:len(order)-1] {
		order[i] = i + 1
	}
}

// repeatArbiter fills its order with input 0 only.
type repeatArbiter struct{}

func (repeatArbiter) OrderInto(order []int) { clear(order) }

// outOfRangeArbiter fills its order with an index past the switch
// width.
type outOfRangeArbiter struct{}

func (outOfRangeArbiter) OrderInto(order []int) {
	for i := range order {
		order[i] = len(order)
	}
}

// TestMalformedArbiterOrderIsAnError: an arbiter whose order is not a
// permutation of its switch's inputs makes RouteCycleInto fail with an
// error naming the stage and switch, never panic or arbitrate by the
// bad order.
func TestMalformedArbiterOrderIsAnError(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, cfg.Inputs())
	for i := range full {
		full[i] = i % cfg.Outputs()
	}
	arbiters := map[string]switchfab.Arbiter{
		"short":        shortArbiter{},
		"repeat":       repeatArbiter{},
		"out-of-range": outOfRangeArbiter{},
	}
	for name, a := range arbiters {
		t.Run(name, func(t *testing.T) {
			n, err := NewNetwork(cfg, func() switchfab.Arbiter { return a })
			if err != nil {
				t.Fatal(err)
			}
			_, err = n.RouteCycleInto(full, make([]Outcome, cfg.Inputs()))
			if err == nil {
				t.Fatal("malformed arbitration order accepted")
			}
			if !strings.Contains(err.Error(), "stage ") || !strings.Contains(err.Error(), "switch ") {
				t.Fatalf("error does not name the stage and switch: %v", err)
			}
		})
	}
}

func TestIdleCycle(t *testing.T) {
	n := mustNet(t, 16, 4, 4, 2)
	dest := make([]int, n.Config().Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	out, stats, err := n.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered != 0 || stats.Delivered != 0 {
		t.Fatalf("idle cycle stats: %+v", stats)
	}
	if stats.PA() != 1 {
		t.Fatalf("idle PA = %g, want 1", stats.PA())
	}
	for i, o := range out {
		if o.Delivered() || o.BlockedStage != 0 {
			t.Fatalf("idle input %d got outcome %+v", i, o)
		}
	}
}

// TestDeliveryCorrectness: every delivered message lands exactly on its
// requested destination, and no output terminal is granted twice.
func TestDeliveryCorrectness(t *testing.T) {
	n := mustNet(t, 16, 4, 4, 2)
	cfg := n.Config()
	rng := xrand.New(77)
	for cycle := 0; cycle < 200; cycle++ {
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			if rng.Bool(0.7) {
				dest[i] = rng.Intn(cfg.Outputs())
			} else {
				dest[i] = NoRequest
			}
		}
		out, stats, err := n.RouteCycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		usedOutputs := map[int]bool{}
		delivered, blocked := 0, 0
		for i, o := range out {
			switch {
			case dest[i] == NoRequest:
				if o.Delivered() || o.BlockedStage != 0 {
					t.Fatalf("cycle %d: idle input %d outcome %+v", cycle, i, o)
				}
			case o.Delivered():
				delivered++
				if o.Output != dest[i] {
					t.Fatalf("cycle %d: input %d wanted %d got %d", cycle, i, dest[i], o.Output)
				}
				if usedOutputs[o.Output] {
					t.Fatalf("cycle %d: output %d double-granted", cycle, o.Output)
				}
				usedOutputs[o.Output] = true
				if o.BlockedStage != 0 {
					t.Fatalf("cycle %d: delivered with BlockedStage=%d", cycle, o.BlockedStage)
				}
			default:
				blocked++
				if o.BlockedStage < 1 || o.BlockedStage > cfg.Stages() {
					t.Fatalf("cycle %d: blocked stage %d out of range", cycle, o.BlockedStage)
				}
			}
		}
		if delivered != stats.Delivered || delivered+blocked != stats.Offered {
			t.Fatalf("cycle %d: stats mismatch %+v vs delivered=%d blocked=%d", cycle, stats, delivered, blocked)
		}
	}
}

// TestLemma2NoTailBlocking: when the offered requests form a permutation
// on a square EDN, no request is ever dropped at the last hyperbar stage
// or at the crossbar stage.
func TestLemma2NoTailBlocking(t *testing.T) {
	nets := []*Network{
		mustNet(t, 16, 4, 4, 2),
		mustNet(t, 8, 4, 2, 3),
		mustNet(t, 8, 2, 4, 2),
		mustNet(t, 64, 16, 4, 2),
	}
	for _, n := range nets {
		cfg := n.Config()
		rng := xrand.New(101)
		for trial := 0; trial < 30; trial++ {
			dest := rng.Perm(cfg.Outputs())[:cfg.Inputs()]
			_, stats, err := n.RouteCycle(dest)
			if err != nil {
				t.Fatal(err)
			}
			if b := stats.Blocked[cfg.L-1]; b != 0 {
				t.Fatalf("%v trial %d: %d blocks at final hyperbar stage", cfg, trial, b)
			}
			if b := stats.Blocked[cfg.L]; b != 0 {
				t.Fatalf("%v trial %d: %d blocks at crossbar stage", cfg, trial, b)
			}
		}
	}
}

// TestDeltaUniquePathBlocking: a delta network (c=1) must block whenever
// two requests need the same internal wire; the classic example is two
// inputs of the same first-stage switch asking for destinations that
// share the leading digit.
func TestDeltaUniquePathBlocking(t *testing.T) {
	n := mustNet(t, 2, 2, 1, 2) // 4x4 delta of 2x2 switches
	dest := []int{0, 1, NoRequest, NoRequest}
	// Inputs 0 and 1 sit on the same first-stage switch; destinations 0
	// and 1 share d_1 = 0, so they contend for the single upper wire.
	out, stats, err := n.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 1 || stats.BlockedTotal() != 1 {
		t.Fatalf("delta conflict: %+v (outcomes %+v)", stats, out)
	}
	if stats.Blocked[0] != 1 {
		t.Fatalf("conflict should be at stage 1, got %v", stats.Blocked)
	}

	// The same pair on an EDN with c=2 routes without loss.
	n2 := mustNet(t, 4, 2, 2, 2)
	dest2 := make([]int, n2.Config().Inputs())
	for i := range dest2 {
		dest2[i] = NoRequest
	}
	dest2[0], dest2[1] = 0, 1
	_, stats2, err := n2.RouteCycle(dest2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Delivered != 2 {
		t.Fatalf("EDN(4,2,2,2) should deliver both: %+v", stats2)
	}
}

// TestCrossbarNetworkNeverBlocksPermutations: EDN(n,n,1,1) is an n x n
// crossbar; permutations route losslessly.
func TestCrossbarNetworkNeverBlocksPermutations(t *testing.T) {
	n := mustNet(t, 16, 16, 1, 1)
	rng := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		dest := rng.Perm(16)
		_, stats, err := n.RouteCycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Delivered != 16 {
			t.Fatalf("crossbar dropped a permutation request: %+v", stats)
		}
	}
}

// TestFullFanInContention: all inputs request output 0. Exactly one
// message can be delivered; capacity limits losses to specific stages.
func TestFullFanInContention(t *testing.T) {
	n := mustNet(t, 16, 4, 4, 2)
	cfg := n.Config()
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = 0
	}
	out, stats, err := n.RouteCycle(dest)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 1 {
		t.Fatalf("fan-in should deliver exactly 1, got %d", stats.Delivered)
	}
	winners := 0
	for _, o := range out {
		if o.Delivered() {
			winners++
			if o.Output != 0 {
				t.Fatalf("winner landed on %d", o.Output)
			}
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners", winners)
	}
}

// TestArbiterFactoryPerSwitchState: round-robin arbiters must not share
// state across switches; two separate switches both start at input 0.
func TestArbiterFactoryPerSwitchState(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	made := 0
	n, err := NewNetwork(cfg, func() switchfab.Arbiter {
		made++
		return &switchfab.RoundRobinArbiter{}
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = i % cfg.Outputs()
	}
	if _, _, err := n.RouteCycle(dest); err != nil {
		t.Fatal(err)
	}
	if made == 0 {
		t.Fatal("factory never invoked")
	}
	// Each (stage, switch) gets its own arbiter, allocated lazily.
	total := 0
	for s := 1; s <= cfg.Stages(); s++ {
		total += cfg.SwitchesInStage(s)
	}
	if made > total {
		t.Fatalf("made %d arbiters for %d switches", made, total)
	}
}

// Property: conservation — offered = delivered + blocked, and per-stage
// blocked counts are consistent, for random loads on random geometries.
func TestQuickConservation(t *testing.T) {
	f := func(rawB, rawC, rawL uint8, seed uint64) bool {
		b := 1 << (rawB%2 + 1) // 2 or 4
		c := 1 << (rawC % 3)   // 1, 2, 4
		l := int(rawL%3) + 1   // 1..3
		cfg := topology.Config{A: b * c, B: b, C: c, L: l}
		if cfg.Validate() != nil || cfg.Inputs() > 4096 {
			return true
		}
		n, err := NewNetwork(cfg, nil)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			if rng.Bool(0.8) {
				dest[i] = rng.Intn(cfg.Outputs())
			} else {
				dest[i] = NoRequest
			}
		}
		out, stats, err := n.RouteCycle(dest)
		if err != nil {
			return false
		}
		delivered := 0
		for _, o := range out {
			if o.Delivered() {
				delivered++
			}
		}
		return delivered == stats.Delivered &&
			stats.Offered == stats.Delivered+stats.BlockedTotal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstTraceRoute: a single message's path through RouteCycle ends
// where the analytical Lemma 1 walk says it must.
func TestAgainstTraceRoute(t *testing.T) {
	n := mustNet(t, 8, 2, 4, 3)
	cfg := n.Config()
	dest := make([]int, cfg.Inputs())
	for src := 0; src < cfg.Inputs(); src += 3 {
		for d := 0; d < cfg.Outputs(); d += 5 {
			for i := range dest {
				dest[i] = NoRequest
			}
			dest[src] = d
			out, _, err := n.RouteCycle(dest)
			if err != nil {
				t.Fatal(err)
			}
			if out[src].Output != d {
				t.Fatalf("RouteCycle delivered %d->%d to %d", src, d, out[src].Output)
			}
		}
	}
}
