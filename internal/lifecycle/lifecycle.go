// Package lifecycle evolves a fabric's component availability over
// discrete simulated time: one alternating-renewal churn over a
// faults.Population, for every fabric. Where internal/faults answers
// "how degraded is this frozen snapshot", this package answers the
// question a machine operator asks of a deployed interconnect: how much
// bandwidth does the network deliver over its lifetime as components
// fail stochastically and get repaired?
//
// Time is divided into epochs. Every component of the population (an
// EDN's interstage wires, switches or both — faults.ModePopulation — or
// a d-dilated delta's sub-wires) runs an independent alternating-renewal
// process: alive for a random time-to-failure drawn around MTBF, dead
// for a random time-to-repair drawn around MTTR. Holding times are
// geometric (the discrete-time exponential: every live component fails
// each epoch with probability 1/MTBF, the memoryless Bernoulli-churn
// regime) or deterministic (fixed maintenance periods, staggered by a
// random initial phase so the fleet does not fail in lockstep). On an
// EDN (New), correlated Blast arrivals overlay the independent churn:
// occasionally a contiguous block of switches in one stage dies
// together and is repaired as a unit.
//
// Step advances one epoch and reports the currently-dead components as
// a faults.Set — exactly the vocabulary the fault compiler consumes —
// so a lifetime loop is: Step, compile over the running engine's
// descriptor, UpdateFaults, simulate the epoch's cycles, repeat. The
// process never rebuilds anything and a given (population, spec, seed)
// replays bit-for-bit, which is what lets simulate's lifetime sweeps
// shard whole lifetimes and merge them deterministically.
package lifecycle

import (
	"fmt"
	"math"

	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Timing selects the holding-time distribution of the failure/repair
// renewal process.
type Timing int

const (
	// Exponential draws geometric holding times (the discrete-time
	// memoryless process): each epoch an alive component dies with
	// probability 1/MTBF and a dead one is repaired with probability
	// 1/MTTR.
	Exponential Timing = iota
	// Deterministic uses fixed periods: a component is alive for
	// round(MTBF) epochs and down for round(MTTR), with a uniformly
	// random initial phase per component.
	Deterministic
)

// String renders the timing for reports and flags.
func (t Timing) String() string {
	switch t {
	case Exponential:
		return "exponential"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("timing(%d)", int(t))
	}
}

// ParseTiming is the inverse of Timing.String, for flag parsing.
func ParseTiming(s string) (Timing, error) {
	switch s {
	case "exponential", "exp":
		return Exponential, nil
	case "deterministic", "det":
		return Deterministic, nil
	default:
		return 0, fmt.Errorf("lifecycle: unknown timing %q (want exponential or deterministic)", s)
	}
}

// Spec describes a failure/repair process. The zero Mode value churns
// interstage wires, the population where bucket multipath pays off.
type Spec struct {
	// Mode selects an EDN's churning population (wires, switches,
	// mixed; faults.ModePopulation). NewProcess takes its population
	// explicitly instead.
	Mode faults.Mode
	// MTBF is the mean number of epochs a component stays alive; MTTR
	// the mean number of epochs a repair takes. Both must be finite and
	// >= 1; a mean beyond ~9e15 epochs never elapses within a run. The
	// long-run dead fraction of the population is MTTR/(MTBF+MTTR).
	MTBF float64
	MTTR float64
	// Timing selects geometric or deterministic holding times.
	Timing Timing
	// BlastRate is the per-epoch probability of a correlated blast: a
	// random stage's switches [center-BlastRadius, center+BlastRadius]
	// die together and are repaired as a unit after a BlastMTTR-mean
	// holding time (MTTR if zero). Zero disables blasts.
	BlastRate   float64
	BlastRadius int
	BlastMTTR   float64
	// RepairWindow batches repairs into maintenance windows: a finished
	// repair only takes effect at epochs divisible by RepairWindow, so
	// a component whose repair clock expires mid-window stays dead
	// until the next boundary (failures still happen at any epoch, and
	// a blast's outage is extended so its block comes back at a
	// boundary too). 0 or 1 means immediate repair — bit-for-bit the
	// un-windowed process, because the next MTBF draw happens at the
	// actual repair either way.
	RepairWindow int
}

func (s Spec) validate() error {
	if err := faults.CheckMode(s.Mode); err != nil {
		return fmt.Errorf("lifecycle: %w", err)
	}
	switch s.Timing {
	case Exponential, Deterministic:
	default:
		return fmt.Errorf("lifecycle: unknown timing %v", s.Timing)
	}
	if !epochs(s.MTBF) {
		return fmt.Errorf("lifecycle: MTBF %g must be a finite count of at least 1 epoch", s.MTBF)
	}
	if !epochs(s.MTTR) {
		return fmt.Errorf("lifecycle: MTTR %g must be a finite count of at least 1 epoch", s.MTTR)
	}
	if !(s.BlastRate >= 0 && s.BlastRate <= 1) {
		return fmt.Errorf("lifecycle: blast rate %g out of [0,1]", s.BlastRate)
	}
	if s.BlastRadius < 0 {
		return fmt.Errorf("lifecycle: blast radius %d must be non-negative", s.BlastRadius)
	}
	if math.IsNaN(s.BlastMTTR) || math.IsInf(s.BlastMTTR, 0) || (s.BlastRate > 0 && s.BlastMTTR != 0 && s.BlastMTTR < 1) {
		return fmt.Errorf("lifecycle: blast MTTR %g must be zero or a finite count of at least 1 epoch", s.BlastMTTR)
	}
	if s.RepairWindow < 0 {
		return fmt.Errorf("lifecycle: repair window %d must be non-negative", s.RepairWindow)
	}
	return nil
}

// epochs reports whether a mean holding time is a finite count of at
// least one epoch (NaN is not).
func epochs(mean float64) bool { return mean >= 1 && !math.IsInf(mean, 1) }

// DeadFractionSteadyState returns the long-run marginal dead fraction
// of the churned population, MTTR/(MTBF+MTTR) — the lifetime analog of
// a static sweep's fault fraction axis.
func (s Spec) DeadFractionSteadyState() float64 {
	return s.MTTR / (s.MTBF + s.MTTR)
}

// component is one alternating-renewal state machine: dead or alive,
// with a countdown to the next transition.
type component struct {
	dead  bool
	timer int32 // epochs until the next state flip, always >= 1
}

// Process is an instantiated failure/repair process over one
// population. It is not safe for concurrent use; sweeps build one per
// shard.
type Process struct {
	pop  faults.Population
	spec Spec
	rng  *xrand.Rand

	epoch int
	dead  int         // currently dead churned components
	comps []component // population order

	// blastUntil[stage-1][switch] is the first epoch at which a blasted
	// switch is live again (0 = not blasted); nil without blasts. The
	// overlay is kept apart from the churn state machines so a blast
	// neither resets nor consumes a switch's own renewal clock.
	blastUntil [][]int64

	// Reused Set backing storage; see Step.
	set faults.Set
}

// New validates spec and starts the EDN process: spec.Mode's population
// over cfg (faults.ModePopulation) plus the blast overlay, with the
// initial component phases drawn from rng. All components start alive;
// the population drifts toward the steady-state dead fraction over the
// first few MTTRs.
func New(cfg topology.Config, spec Spec, rng *xrand.Rand) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := start(faults.ModePopulation(cfg, spec.Mode), spec, rng)
	if spec.BlastRate > 0 {
		p.blastUntil = make([][]int64, cfg.L+1)
		for s := 1; s <= cfg.L+1; s++ {
			p.blastUntil[s-1] = make([]int64, cfg.SwitchesInStage(s))
		}
	}
	return p, nil
}

// NewProcess validates spec and starts its renewal clocks over an
// arbitrary population, drawing the initial phases from rng in
// population order. spec.Mode names EDN populations and is not
// consulted; blasts are EDN structure (see New), so BlastRate must be
// zero.
func NewProcess(pop faults.Population, spec Spec, rng *xrand.Rand) (*Process, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.BlastRate != 0 {
		return nil, fmt.Errorf("lifecycle: blasts need an EDN process (see New)")
	}
	return start(pop, spec, rng), nil
}

func start(pop faults.Population, spec Spec, rng *xrand.Rand) *Process {
	p := &Process{pop: pop, spec: spec, rng: rng, comps: make([]component, pop.Len())}
	for i := range p.comps {
		p.comps[i].timer = InitialTTF(spec.Timing, spec.MTBF, rng)
	}
	return p
}

// Spec returns the process's failure/repair specification.
func (p *Process) Spec() Spec { return p.spec }

// Epoch returns the number of Step calls so far.
func (p *Process) Epoch() int { return p.epoch }

// DeadFraction returns the currently-dead fraction of the churned
// population (the blast overlay is not part of the churn census).
func (p *Process) DeadFraction() float64 {
	if len(p.comps) == 0 {
		return 0
	}
	return float64(p.dead) / float64(len(p.comps))
}

// Step advances one epoch — every component's renewal clock ticks in
// population order, and on an EDN a blast may arrive once the wire runs
// have ticked — and returns the fault set now in effect. The returned
// Set reuses the process's backing slices: it is valid until the next
// Step call, which is exactly the lifetime of the compile-and-apply it
// feeds.
func (p *Process) Step() faults.Set {
	p.epoch++
	p.set.Wires, p.set.Switches, p.set.Ports = p.set.Wires[:0], p.set.Switches[:0], p.set.Ports[:0]
	blast := p.blastUntil != nil
	i := 0
	for _, r := range p.pop {
		if blast && r.Kind == faults.SwitchRun {
			p.maybeBlast()
			blast = false
		}
		for k := 0; k < r.N; k++ {
			if p.tick(&p.comps[i]) || (r.Kind == faults.SwitchRun && p.blasted(r.At, k)) {
				r.Append(&p.set, k)
			}
			i++
		}
	}
	if blast {
		// No churned switches: the blast overlay is the only switch
		// killer.
		p.maybeBlast()
		for s, row := range p.blastUntil {
			for sw := range row {
				if p.blasted(s+1, sw) {
					p.set.Switches = append(p.set.Switches, faults.SwitchID{Stage: s + 1, Switch: sw})
				}
			}
		}
	}
	return p.set
}

// repairOpen reports whether the current epoch is a maintenance-window
// boundary at which finished repairs take effect.
func (p *Process) repairOpen() bool {
	return p.spec.RepairWindow <= 1 || p.epoch%p.spec.RepairWindow == 0
}

// tick advances one component one epoch and reports whether it is dead.
func (p *Process) tick(c *component) bool {
	c.timer--
	if c.timer <= 0 {
		if c.dead {
			if !p.repairOpen() {
				// Repair clock expired mid-window: hold the component
				// dead, re-checking at every epoch until the boundary.
				// The MTBF draw waits for the actual repair, which is
				// what keeps RepairWindow <= 1 on the exact RNG stream
				// of the un-windowed process.
				c.timer = 1
				return true
			}
			c.dead = false
			p.dead--
			c.timer = p.draw(p.spec.MTBF)
		} else {
			c.dead = true
			p.dead++
			c.timer = p.draw(p.spec.MTTR)
		}
	}
	return c.dead
}

// maybeBlast draws the epoch's blast arrival and, on a hit, kills a
// contiguous switch block: uniform stage, uniform center, the spec's
// radius, repaired as a unit after a BlastMTTR-mean holding time.
func (p *Process) maybeBlast() {
	if !p.rng.Bool(p.spec.BlastRate) {
		return
	}
	stage := 1 + p.rng.Intn(len(p.blastUntil))
	row := p.blastUntil[stage-1]
	center := p.rng.Intn(len(row))
	mttr := p.spec.BlastMTTR
	if mttr == 0 {
		mttr = p.spec.MTTR
	}
	// A draw of k holds the block dead for k epochs including the
	// arrival epoch (blasted tests >=), matching a churned component's
	// outage length for the same draw.
	until := int64(p.epoch) + int64(p.draw(mttr)) - 1
	if w := int64(p.spec.RepairWindow); w > 1 {
		// Batch repair: extend the outage so the block's first live
		// epoch (until+1) lands on a maintenance-window boundary.
		if rem := (until + 1) % w; rem != 0 {
			until += w - rem
		}
	}
	lo, hi := center-p.spec.BlastRadius, center+p.spec.BlastRadius
	if lo < 0 {
		lo = 0
	}
	if hi > len(row)-1 {
		hi = len(row) - 1
	}
	for sw := lo; sw <= hi; sw++ {
		if until > row[sw] {
			row[sw] = until
		}
	}
}

// blasted reports whether the blast overlay holds (stage, sw) dead this
// epoch.
func (p *Process) blasted(stage, sw int) bool {
	if p.blastUntil == nil {
		return false
	}
	return p.blastUntil[stage-1][sw] >= int64(p.epoch)
}

// draw samples one holding time around mean epochs, per the spec's
// timing. Always at least 1.
func (p *Process) draw(mean float64) int32 {
	return HoldingTime(p.spec.Timing, mean, p.rng)
}

// HoldingTime draws one holding time around mean epochs under the given
// timing; always at least 1. It is the renewal-clock primitive of every
// Process, so matched lifetime comparisons of two fabrics sample their
// outage lengths from identical distributions.
func HoldingTime(t Timing, mean float64, rng *xrand.Rand) int32 {
	if t == Deterministic {
		k := math.Round(mean)
		if k < 1 {
			return 1
		}
		if k >= math.MaxInt32 {
			return math.MaxInt32
		}
		return int32(k)
	}
	// Geometric with success probability 1/mean via inversion: the
	// number of per-epoch Bernoulli(1/mean) trials up to and including
	// the first success. Clamped into int32 before conversion — huge
	// means ("effectively never fails") would otherwise overflow.
	if mean <= 1 {
		return 1
	}
	u := rng.Float64()
	q := math.Log(1 - 1/mean)
	if q == 0 {
		// 1-1/mean rounds to 1 (means beyond ~9e15 epochs): the clock
		// never fires within a run.
		return math.MaxInt32
	}
	k := 1 + math.Floor(math.Log(1-u)/q)
	if k < 1 {
		return 1
	}
	if k >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(k)
}

// InitialTTF draws a component's first time-to-failure. Exponential
// holding times are memoryless, so the stationary draw is the plain
// one; deterministic periods get a uniform phase in [1, MTBF] so the
// fleet's maintenance windows are staggered instead of synchronized.
func InitialTTF(t Timing, mtbf float64, rng *xrand.Rand) int32 {
	if t == Deterministic {
		period := HoldingTime(t, mtbf, rng) // the fixed alive period, clamped
		return 1 + int32(rng.Intn(int(period)))
	}
	return HoldingTime(t, mtbf, rng)
}
