package dilated

import (
	"fmt"
	"math"

	"edn/internal/analytic"
	"edn/internal/faults"
)

// Degraded is a compiled dilated fault state: per-boundary group
// capacity histograms — weight[k] groups retain exactly k live
// sub-wires — the "per-stage capacity reduction" form the acceptance
// recursion consumes. Weights are float64 so the same representation
// carries both an exact compiled sample (integer weights) and the
// Binomial expectation of a fault fraction (ExpectedDegraded).
type Degraded struct {
	cfg  Config
	hist [][]float64 // [boundary-1][k], k in 0..D, weights summing to Ports()
	dead float64     // dead sub-wires (expected, for ExpectedDegraded)
}

// CompileFaults folds masks compiled over cfg's fabric (internal/
// dilatedsim's Compile) into per-stage capacity histograms: a group
// keeps as many live sub-wires as its stage-output row marks live. A
// nil mask is the fault-free state; masks compiled for another geometry
// are an error.
func (cfg Config) CompileFaults(m *faults.Masks) (*Degraded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m != nil && m.Label() != cfg {
		return nil, fmt.Errorf("dilated: masks compiled for %v, network is %v", m.Label(), cfg)
	}
	d := newDegraded(cfg)
	for bd := 1; bd <= cfg.L; bd++ {
		row := m.LiveStageOutputs(bd)
		for g := 0; row != nil && g < cfg.Ports(); g++ {
			k := 0
			for _, live := range row[g*cfg.D : (g+1)*cfg.D] {
				if live {
					k++
				}
			}
			d.hist[bd-1][cfg.D]-- // the group leaves the fully-live bin ...
			d.hist[bd-1][k]++     // ... for its live-capacity bin
			d.dead += float64(cfg.D - k)
		}
	}
	return d, nil
}

// ExpectedDegraded returns the Binomial-expectation fault state at
// sub-wire death fraction f: every boundary's histogram is the exact
// distribution of Binomial(D, 1-f) live wires per group. It is the
// smooth analytic counterpart of compiling a Bernoulli sub-wire sample —
// the natural curve to plot against an EDN availability sweep at the
// same per-wire fault fraction.
func (cfg Config) ExpectedDegraded(f float64) (*Degraded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := faults.CheckFraction(f); err != nil {
		return nil, err
	}
	d := newDegraded(cfg)
	if f == 0 {
		return d, nil
	}
	groups := float64(cfg.Ports())
	pmf := make([]float64, cfg.D+1)
	for k := 0; k <= cfg.D; k++ {
		pmf[k] = binomPMF(cfg.D, k, 1-f)
	}
	for bd := 1; bd <= cfg.L; bd++ {
		row := d.hist[bd-1]
		for k := 0; k <= cfg.D; k++ {
			row[k] = groups * pmf[k]
		}
	}
	d.dead = f * float64(cfg.L) * groups * float64(cfg.D)
	return d, nil
}

func newDegraded(cfg Config) *Degraded {
	d := &Degraded{cfg: cfg, hist: make([][]float64, cfg.L)}
	for i := range d.hist {
		row := make([]float64, cfg.D+1)
		row[cfg.D] = float64(cfg.Ports())
		d.hist[i] = row
	}
	return d
}

// Config returns the configuration the state was compiled for.
func (d *Degraded) Config() Config { return d.cfg }

// DeadSubWires returns the (expected) number of dead sub-wires.
func (d *Degraded) DeadSubWires() float64 { return d.dead }

// PA returns the probability of acceptance of the degraded dilated
// network under the Section 3.2 traffic assumptions — the same
// independence-per-stage recursion as Config.PA, generalized to
// heterogeneous group capacities by averaging each stage's bucket
// acceptance over the boundary's capacity histogram (mean-field over
// groups: a group with k live wires accepts like a capacity-k bucket,
// and downstream rates are total surviving flow over total live
// wires). With the empty fault state it equals Config.PA exactly; a
// boundary with every sub-wire dead severs the network and PA is 0.
func (d *Degraded) PA(r float64) float64 {
	if r == 0 {
		return 1
	}
	cfg := d.cfg
	// Stage 1: single-wire input ports are never dilated, so all B
	// inputs are live at rate r; its output groups are boundary 1.
	ri, liveFrac, ok := stageThrough(cfg.B, cfg.B, cfg.D, d.hist[0], r)
	if !ok {
		return 0
	}
	for j := 2; j <= cfg.L; j++ {
		// Dead inputs of an interior stage are rate-thinned: the B*D
		// physical inputs carry the surviving flow of the upstream
		// boundary spread over its live fraction.
		ri, liveFrac, ok = stageThrough(cfg.B*cfg.D, cfg.B, cfg.D, d.hist[j-1], ri*liveFrac)
		if !ok {
			return 0
		}
	}
	// Output ports: a port accepts one of the arrivals on its final
	// group's live wires, averaged over the boundary-L histogram.
	row := d.hist[cfg.L-1]
	groups := float64(cfg.Ports())
	rOut := 0.0
	for k := 1; k <= cfg.D; k++ {
		if row[k] == 0 {
			continue
		}
		rOut += row[k] / groups * (1 - math.Pow(1-ri, float64(k)))
	}
	return rOut / r
}

// Bandwidth returns expected delivered requests per cycle at rate r.
func (d *Degraded) Bandwidth(r float64) float64 {
	return d.PA(r) * r * float64(d.cfg.Ports())
}

// stageThrough pushes a per-input rate through one dilated stage whose
// output groups have the given capacity histogram: returns the mean
// per-live-wire output rate and the live fraction of the boundary's
// wires. ok is false when the boundary retains no live wire at all.
func stageThrough(width, buckets, dil int, hist []float64, r float64) (ri, liveFrac float64, ok bool) {
	if r > 1 {
		r = 1 // thinning can only reduce; guard accumulated float error
	}
	var groups, accepted, live float64
	for k := 0; k <= dil; k++ {
		w := hist[k]
		if w == 0 {
			continue
		}
		groups += w
		live += w * float64(k)
		if k > 0 {
			accepted += w * analytic.BucketAcceptance(width, buckets, k, r)
		}
	}
	if live == 0 {
		return 0, 0, false
	}
	return accepted / live, live / (groups * float64(dil)), true
}

// binomPMF returns C(n,k) p^k (1-p)^(n-k).
func binomPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}
