package simulate

import (
	"fmt"
	"testing"

	"edn/internal/closedloop"
	"edn/internal/lifecycle"
)

// TestZeroNetworkIsAnError runs every exported harness on a zero EDN
// and a zero dilated delta: each must return the geometry's validation
// error, never panic (a zero topology.Config divides by zero in Inputs,
// and a zero dilated.Config is an invalid hyperbar).
func TestZeroNetworkIsAnError(t *testing.T) {
	opts := Options{Cycles: 20}
	lopts := LifetimeOptions{Epochs: 2, EpochCycles: 10, Spec: lifecycle.Spec{MTBF: 10, MTTR: 2}}
	aopts := AvailabilityOptions{Fractions: []float64{0.1}}
	lo := closedloop.Options{}
	zeroEDN, zeroDil := EDN{}, Dilated{}
	harnesses := map[string]func(net Net) error{
		"MeasureLatency": func(net Net) error {
			_, err := MeasureLatency(net, UniformLoad(0.5, nil), opts)
			return err
		},
		"SaturationSweep": func(net Net) error {
			_, err := SaturationSweep(net, []float64{0.5}, nil, opts, 1)
			return err
		},
		"SaturationPoint": func(net Net) error {
			_, err := SaturationPoint(net, 0.5, 0, nil, opts, 1)
			return err
		},
		"DrainPermutations": func(net Net) error {
			_, err := DrainPermutations(net, 1, opts)
			return err
		},
		"MeasureClosedLoop": func(net Net) error {
			_, err := MeasureClosedLoop(net, []float64{0.5}, lo, opts, 1)
			return err
		},
		"ClosedLoopPoint": func(net Net) error {
			_, err := ClosedLoopPoint(net, 0.5, 0, lo, opts, 1)
			return err
		},
		"ClosedLoopLifetimeSweep": func(net Net) error {
			_, err := ClosedLoopLifetimeSweep(net, lopts, lo, opts, 1)
			return err
		},
		"AvailabilitySweep": func(net Net) error {
			_, err := AvailabilitySweep(net, aopts, nil, opts, 1)
			return err
		},
		"AvailabilityPoint": func(net Net) error {
			_, err := AvailabilityPoint(net, aopts, 0.1, nil, opts, 1)
			return err
		},
		"LifetimeSweep": func(net Net) error {
			_, err := LifetimeSweep(net, lopts, nil, opts, 1)
			return err
		},
	}
	for name, run := range harnesses {
		for _, net := range []Net{zeroEDN, zeroDil} {
			t.Run(fmt.Sprintf("%s/%T", name, net), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := run(net); err == nil {
					t.Fatal("zero network accepted")
				}
			})
		}
	}
}
