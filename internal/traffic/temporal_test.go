package traffic

import (
	"math"
	"testing"

	"edn/internal/xrand"
)

func TestMarkovOnOffOfferedLoad(t *testing.T) {
	// The measured request rate must converge to Rate*POn/(POn+POff).
	src := &MarkovOnOff{Rate: 0.9, POn: 0.05, POff: 0.15, Rng: xrand.New(7)}
	want := src.OfferedLoad()
	if math.Abs(want-0.9*0.25) > 1e-12 {
		t.Fatalf("OfferedLoad = %g, want %g", want, 0.9*0.25)
	}
	const inputs, outputs, cycles = 128, 128, 4000
	dest := make([]int, inputs)
	requests := 0
	for cycle := 0; cycle < cycles; cycle++ {
		src.GenerateInto(dest, outputs)
		for _, d := range dest {
			if d != None {
				requests++
			}
		}
	}
	got := float64(requests) / float64(inputs*cycles)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("measured load %.4f, want %.4f +-0.02", got, want)
	}
}

func TestMarkovOnOffIsBursty(t *testing.T) {
	// A single on/off input with long states must show runs: count the
	// per-cycle state flips of input 0 and require far fewer transitions
	// than a memoryless source of the same mean rate would make.
	src := &MarkovOnOff{Rate: 1, POn: 0.05, POff: 0.05, Rng: xrand.New(9)}
	dest := make([]int, 1)
	const cycles = 2000
	transitions, active, prev := 0, 0, false
	for cycle := 0; cycle < cycles; cycle++ {
		src.GenerateInto(dest, 64)
		on := dest[0] != None
		if cycle > 0 && on != prev {
			transitions++
		}
		if on {
			active++
		}
		prev = on
	}
	// Memoryless at rate ~0.5 flips ~half the cycles; the chain flips
	// with probability ~0.05 per cycle. 0.25*cycles splits the regimes.
	if transitions >= cycles/4 {
		t.Errorf("source does not look bursty: %d transitions in %d cycles (active %d)",
			transitions, cycles, active)
	}
	if active == 0 || active == cycles {
		t.Errorf("source stuck in one state: active %d of %d", active, cycles)
	}
}

func TestMovingHotSpotMoves(t *testing.T) {
	const outputs = 16
	src := &MovingHotSpot{Rate: 1, Fraction: 1, Hot: 2, Period: 5, Stride: 3, Rng: xrand.New(3)}
	dest := make([]int, 8)
	for cycle := 0; cycle < 20; cycle++ {
		wantHot := (2 + (cycle/5)*3) % outputs
		if got := src.CurrentHot(outputs); got != wantHot {
			t.Fatalf("cycle %d: CurrentHot = %d, want %d", cycle, got, wantHot)
		}
		src.GenerateInto(dest, outputs)
		for i, d := range dest {
			if d != wantHot {
				t.Fatalf("cycle %d input %d: dest %d, want hot %d (Fraction=1)", cycle, i, d, wantHot)
			}
		}
	}
}

func TestMovingHotSpotDefaults(t *testing.T) {
	// Period < 1 behaves as 1, Stride 0 as 1, and negative strides wrap.
	src := &MovingHotSpot{Rate: 1, Fraction: 1, Rng: xrand.New(4)}
	if got := src.CurrentHot(8); got != 0 {
		t.Fatalf("initial hot = %d, want 0", got)
	}
	dest := make([]int, 1)
	src.GenerateInto(dest, 8)
	if got := src.CurrentHot(8); got != 1 {
		t.Errorf("after one cycle hot = %d, want 1 (period and stride default to 1)", got)
	}
	back := &MovingHotSpot{Rate: 1, Fraction: 1, Stride: -1, Rng: xrand.New(5)}
	back.GenerateInto(dest, 8)
	if got := back.CurrentHot(8); got != 7 {
		t.Errorf("negative stride should wrap: hot = %d, want 7", got)
	}
}
