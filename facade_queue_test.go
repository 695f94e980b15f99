package edn

import (
	"testing"
)

// facade_queue_test.go exercises the queueing layer through the public
// facade, the way edn latency and the Example functions consume it.

func TestFacadeQueueNetwork(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueueNetwork(cfg, QueueOptions{Depth: 4, Policy: QueueBackpressure})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(1)
	gen := Uniform{Rate: 0.5, Rng: rng}
	dest := make([]int, cfg.Inputs())
	for cycle := 0; cycle < 50; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	tot := q.Totals()
	if tot.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
		t.Fatalf("conservation broken through the facade: %+v queued=%d", tot, q.Queued())
	}
	if q.Latency().N() != tot.Delivered {
		t.Fatalf("latency histogram holds %d samples, delivered %d", q.Latency().N(), tot.Delivered)
	}
}

func TestFacadeMeasureLatencyAndSweep(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureLatency(EDNNet{Config: cfg, Queue: QueueOptions{Depth: 8}},
		Uniform{Rate: 0.3, Rng: NewRand(2)}, SimOptions{Cycles: 400, Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyP50 < float64(cfg.Stages()) {
		t.Errorf("P50 %.1f below the pipeline floor %d", res.LatencyP50, cfg.Stages())
	}
	sweep, err := SaturationSweep(EDNNet{Config: cfg, Queue: QueueOptions{Depth: 8}},
		[]float64{0.2, 0.8}, BurstyLoad(16), SimOptions{Cycles: 300, Warmup: 50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 || sweep[1].LatencyMean < sweep[0].LatencyMean {
		t.Errorf("sweep latency should rise with load: %+v", sweep)
	}
}

func TestFacadeDrainPermutations(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DrainPermutations(EDNNet{Config: cfg, Queue: QueueOptions{Depth: QueueUnbounded}}, 4, SimOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < int64(4-1+cfg.Stages()) {
		t.Errorf("drain of 4 waves in %d cycles is below the physical floor", res.Cycles)
	}
}

func TestFacadeHistogram(t *testing.T) {
	h := NewHistogram(16, 1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i % 10))
	}
	if h.Quantile(0.5) != 4 {
		t.Errorf("P50 = %g, want 4", h.Quantile(0.5))
	}
}

func TestFacadeTemporalTraffic(t *testing.T) {
	for _, p := range []Pattern{
		&MarkovOnOff{Rate: 1, POn: 0.1, POff: 0.1, Rng: NewRand(4)},
		&MovingHotSpot{Rate: 1, Fraction: 1, Period: 2, Rng: NewRand(5)},
	} {
		for i, d := range genVec(p, 32, 64) {
			if d != NoRequest && (d < 0 || d >= 64) {
				t.Fatalf("%s: input %d requests output %d of 64", p.Name(), i, d)
			}
		}
	}
}
