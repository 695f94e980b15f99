package simulate

import (
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// StageRateResult compares the measured per-stage survivor rates with the
// Theorem 3 / Equation 4 recursion, element by element.
type StageRateResult struct {
	Config topology.Config
	// Measured[i] is the measured per-wire request rate on the wires
	// after stage i (index 0 = offered rate at the inputs; the last index
	// is the network-output rate).
	Measured []float64
	Cycles   int
}

// MeasureStageRates runs uniform traffic at rate r and reports the mean
// per-wire survivor rate at every stage boundary over MeasureUniformPA's
// measurement window. This validates the stage recursion r_{i+1} =
// E(r_i)/c at every stage, not just its end product PA. The requests
// alive after stage i are those offered less the engine's drops at
// stages 1..i, summed over the window.
func MeasureStageRates(cfg topology.Config, r float64, opts Options) (StageRateResult, error) {
	opts = opts.withDefaults()
	pa, offered, err := measurePA(cfg, traffic.Uniform{Rate: r, Rng: xrand.New(opts.Seed)}, opts)
	if err != nil {
		return StageRateResult{}, err
	}
	res := StageRateResult{Config: cfg, Cycles: opts.Cycles}
	cycles := float64(opts.Cycles)
	alive := offered
	for i, dropped := range append([]int{0}, pa.BlockedPerStage...) {
		alive -= int64(dropped)
		wires := float64(cfg.WiresAfterStage(i))
		res.Measured = append(res.Measured, float64(alive)/(wires*cycles))
	}
	return res, nil
}
