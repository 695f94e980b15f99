package closedloop

import (
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

// newQueuePair builds fresh forward and return EDN fabrics.
func newQueuePair(t testing.TB, cfg topology.Config, qopts queuesim.Options) (*queuesim.Network, *queuesim.Network) {
	t.Helper()
	fwd, err := queuesim.New(cfg, qopts)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := queuesim.New(cfg, qopts)
	if err != nil {
		t.Fatal(err)
	}
	return fwd, rev
}

func newDilatedPair(t testing.TB, dcfg dilated.Config, dopts dilatedsim.Options) (*dilatedsim.Network, *dilatedsim.Network) {
	t.Helper()
	fwd, err := dilatedsim.New(dcfg, dopts)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := dilatedsim.New(dcfg, dopts)
	if err != nil {
		t.Fatal(err)
	}
	return fwd, rev
}

func mustEDN(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runChecked(t *testing.T, l *Loop, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		if _, err := l.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if err := l.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
}

// A healthy square EDN completes nearly everything it issues, with no
// timeouts at a generous deadline.
func TestRoundTripsComplete(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2) // 8x8 square
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 4})
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{
		Rate: 0.3, Window: 4, Timeout: 128, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, loop, 3000)
	led := loop.Ledger()
	if led.Offered == 0 || led.Issued == 0 {
		t.Fatalf("no traffic: %+v", led)
	}
	if led.Timeouts != 0 {
		t.Fatalf("healthy fabric timed out %d attempts: %+v", led.Timeouts, led)
	}
	if led.Completed < led.Issued-led.InFlight {
		t.Fatalf("completions leaked: %+v", led)
	}
	// End-to-end latency floor: forward transit (stages cycles) plus one
	// service cycle plus return transit.
	if min := loop.Latency().Min(); min < float64(2*cfg.Stages()) {
		t.Fatalf("latency min %.0f below the physical floor %d", min, 2*cfg.Stages())
	}
	// The zero SLA credits every completion with 1.
	if got, want := loop.SLACredit(), float64(led.Completed); got != want {
		t.Fatalf("zero-SLA credit %.1f != completed %.1f", got, want)
	}
}

// A non-square EDN (fan-out 4) concentrates replies without losing any.
func TestNonSquareGeometry(t *testing.T) {
	cfg := mustEDN(t, 4, 4, 2, 2) // 8 inputs, 32 outputs
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 4})
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{
		Rate: 0.4, Timeout: 128, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loop.ratio != 4 {
		t.Fatalf("ratio %d, want 4", loop.ratio)
	}
	runChecked(t, loop, 3000)
	led := loop.Ledger()
	if led.Completed == 0 {
		t.Fatalf("nothing completed: %+v", led)
	}
	if led.Timeouts != 0 || led.Orphans != 0 || led.Stale != 0 {
		t.Fatalf("healthy run lost attempts: %+v", led)
	}
}

// The dilated engine drives the same orchestrator.
func TestDilatedEngine(t *testing.T) {
	dcfg, err := dilated.New(2, 2, 3) // 8 ports, 2-dilated
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := newDilatedPair(t, dcfg, dilatedsim.Options{Depth: 4})
	loop, err := New(fwd, rev, dcfg.Ports(), dcfg.Ports(), Options{
		Rate: 0.3, Timeout: 128, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, loop, 3000)
	if led := loop.Ledger(); led.Completed == 0 || led.Timeouts != 0 {
		t.Fatalf("dilated run: %+v", led)
	}
}

// Two loops with the same seed, source count and rate offer bit-equal
// demand, regardless of which fabric they drive — the replay-matching
// contract of EDN vs dilated comparisons.
func TestOfferedBitEqualAcrossEngines(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2) // 8x8
	dcfg, err := dilated.New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	qf, qr := newQueuePair(t, cfg, queuesim.Options{Depth: 2})
	df, dr := newDilatedPair(t, dcfg, dilatedsim.Options{Depth: 2})
	opts := Options{Rate: 0.45, Timeout: 64, Seed: 99}
	ql, err := New(qf, qr, cfg.Inputs(), cfg.Outputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := New(df, dr, dcfg.Ports(), dcfg.Ports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2000; c++ {
		if _, err := ql.Cycle(); err != nil {
			t.Fatal(err)
		}
		if _, err := dl.Cycle(); err != nil {
			t.Fatal(err)
		}
		if qo, do := ql.Ledger().Offered, dl.Ledger().Offered; qo != do {
			t.Fatalf("cycle %d: offered diverged, EDN %d vs dilated %d", c, qo, do)
		}
	}
	if ql.Ledger().Offered == 0 {
		t.Fatal("no demand offered")
	}
}

// An impossible deadline times every attempt out; MaxAttempts turns the
// timeouts into give-ups, and the late deliveries surface as orphans
// and stale replies, never as completions.
func TestTimeoutGiveUpAndOrphans(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2)
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 4})
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{
		Rate: 0.2, Timeout: 1, MaxAttempts: 3, MaxBacklog: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, loop, 2000)
	led := loop.Ledger()
	if led.Completed != 0 {
		t.Fatalf("timeout 1 cannot complete a >= 4-cycle round trip: %+v", led)
	}
	if led.GivenUp == 0 || led.Timeouts == 0 || led.Retries == 0 {
		t.Fatalf("expected give-ups after retries: %+v", led)
	}
	if led.Orphans == 0 {
		t.Fatalf("late deliveries should be orphans: %+v", led)
	}
	if led.Timeouts != led.Retries+led.GivenUp+led.RetryWaiting {
		t.Fatalf("every timeout retries, gives up, or still waits: %+v", led)
	}
}

// Backoff spreads retries out: with the same demand, the backoff loop
// issues no more retries than the immediate loop, and both replay
// bit-for-bit under the same seed.
func TestRetryPolicies(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2)
	run := func(policy RetryPolicy) Ledger {
		fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 4})
		loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{
			Rate: 0.2, Timeout: 2, MaxAttempts: 6, Retry: policy,
			BackoffBase: 4, BackoffCap: 32, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, loop, 1500)
		return loop.Ledger()
	}
	imm, back := run(RetryImmediate), run(RetryBackoff)
	if imm != run(RetryImmediate) {
		t.Fatal("immediate policy not deterministic under a fixed seed")
	}
	if back != run(RetryBackoff) {
		t.Fatal("backoff policy not deterministic under a fixed seed")
	}
	if back.Retries > imm.Retries {
		t.Fatalf("backoff retried more (%d) than immediate (%d)", back.Retries, imm.Retries)
	}
	if back.Retries == 0 {
		t.Fatalf("backoff never retried: %+v", back)
	}
}

// The avoidance list steers new draws to live outputs only.
func TestAvoidanceList(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2)
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 4})
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{Rate: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]bool, cfg.Outputs())
	for m := range live {
		live[m] = m%2 == 0
	}
	if err := loop.SetLiveOutputs(live); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if d := loop.drawDest(); d%2 != 0 {
			t.Fatalf("draw %d hit avoided output %d", i, d)
		}
	}
	if loop.Ledger().Avoided != 1000 {
		t.Fatalf("avoided draws %d, want 1000", loop.Ledger().Avoided)
	}
	// An all-dead list falls back to the full range rather than stalling.
	if err := loop.SetLiveOutputs(make([]bool, cfg.Outputs())); err != nil {
		t.Fatal(err)
	}
	odd := false
	for i := 0; i < 200 && !odd; i++ {
		odd = loop.drawDest()%2 == 1
	}
	if !odd {
		t.Fatal("all-dead avoidance list should fall back to the full range")
	}
	if err := loop.SetLiveOutputs(nil); err != nil {
		t.Fatal(err)
	}
	if loop.liveCount != cfg.Outputs() {
		t.Fatalf("nil list should restore all %d outputs, got %d", cfg.Outputs(), loop.liveCount)
	}
}

// Per-source occupancy never exceeds the window.
func TestWindowCap(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2)
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 1})
	const w = 2
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{
		Rate: 1, Window: w, Timeout: 4, MaxAttempts: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 1000; c++ {
		if _, err := loop.Cycle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < loop.inputs; i++ {
			busy := 0
			for k := 0; k < w; k++ {
				if loop.slots[i*w+k].state != slotFree {
					busy++
				}
			}
			if busy > w {
				t.Fatalf("cycle %d: source %d holds %d > %d outstanding", c, i, busy, w)
			}
		}
	}
	if loop.Ledger().Shed == 0 {
		t.Fatal("rate 1 with window 2 should shed at the backlog")
	}
}

func TestSLAWeight(t *testing.T) {
	var zero SLA
	if zero.Weight(1e9) != 1 {
		t.Fatal("zero SLA must credit everything")
	}
	step := SLA{Deadline: 10}
	if step.Weight(10) != 1 || step.Weight(11) != 0 {
		t.Fatal("Zero <= Deadline must behave as a step")
	}
	ramp := SLA{Deadline: 10, Zero: 20}
	if ramp.Weight(5) != 1 || ramp.Weight(25) != 0 {
		t.Fatal("ramp endpoints wrong")
	}
	if got := ramp.Weight(15); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ramp midpoint %.3f, want 0.5", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := mustEDN(t, 4, 2, 2, 2)
	fwd, rev := newQueuePair(t, cfg, queuesim.Options{Depth: 1})
	cases := []struct {
		name    string
		in, out int
		opts    Options
	}{
		{"indivisible", 3, 8, Options{Rate: 0.5}},
		{"rate", cfg.Inputs(), cfg.Outputs(), Options{Rate: 1.5}},
		{"nan-rate", cfg.Inputs(), cfg.Outputs(), Options{Window: 4, Rate: math.NaN()}},
		{"retry", cfg.Inputs(), cfg.Outputs(), Options{Rate: 0.5, Retry: RetryPolicy(9)}},
		{"cap", cfg.Inputs(), cfg.Outputs(), Options{Rate: 0.5, BackoffBase: 8, BackoffCap: 4}},
	}
	for _, c := range cases {
		if _, err := New(fwd, rev, c.in, c.out, c.opts); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// A used fabric is rejected.
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Cycle(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), Options{Rate: 0.5}); err == nil {
		t.Fatal("stale fabrics accepted")
	}
}
