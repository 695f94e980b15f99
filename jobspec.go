package edn

// A JobSpec is the one serializable description of a measurement job:
// everything the facade's Measure*/*Sweep functions take as Go values
// — geometry, traffic source, queue regime, closed-loop workload,
// fault process, probe shape, cycle budget, shard count — flattened
// into strings and numbers that survive a JSON round trip. Every
// facade entry point has a JobSpec equivalent that Run reproduces bit
// for bit (the function-typed options a spec cannot hold, LoadPattern
// and ArbiterFactory, are named by enum strings and compiled back with
// the same constructors the CLIs use), so a sweep run from flags, a
// spec file, or a daemon request is the same measurement.
//
// The zero values of optional sections follow the underlying option
// structs: a nil Queue is the zero QueueOptions (depth-0 unbuffered,
// backpressure, priority arbitration), a nil Traffic is uniform iid
// load, a nil Probe attaches no flight recorder.

import (
	"errors"
	"fmt"
	"math"

	"edn/internal/cliutil"
	"edn/internal/closedloop"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/simulate"
)

// Job modes: which measurement Run performs. See JobSpec.Mode.
const (
	JobLatency            = "latency"             // one MeasureLatency point at Load
	JobSaturation         = "saturation"          // SaturationSweep over Loads
	JobDrain              = "drain"               // DrainPermutations of Drain.Q rounds
	JobAvailability       = "availability"        // AvailabilitySweep over Avail.Fractions
	JobLifetime           = "lifetime"            // LifetimeSweep under Lifetime churn
	JobClosedLoop         = "closedloop"          // MeasureClosedLoop over Rates
	JobClosedLoopLifetime = "closedloop-lifetime" // ClosedLoopLifetimeSweep
	JobEstimate           = "estimate"            // one-shot src/dst latency estimate
)

// Job engines: which network family the measurement drives.
const (
	EngineEDN     = "edn"     // the paper's network (default)
	EngineDilated = "dilated" // the equal-redundancy dilated counterpart
	EnginePair    = "pair"    // both, replay-matched (closedloop only)
)

// GeometrySpec names an EDN(a,b,c,l).
type GeometrySpec struct {
	A int `json:"a"`
	B int `json:"b"`
	C int `json:"c"`
	L int `json:"l"`
}

// Compile validates the geometry.
func (g GeometrySpec) Compile() (Config, error) { return New(g.A, g.B, g.C, g.L) }

// DilatedGeometrySpec names a d-dilated radix-b delta of l stages.
type DilatedGeometrySpec struct {
	B int `json:"b"`
	D int `json:"d"`
	L int `json:"l"`
}

// Compile validates the dilated geometry.
func (g DilatedGeometrySpec) Compile() (DilatedDelta, error) {
	return NewDilatedDelta(g.B, g.D, g.L)
}

// TrafficSpec selects the traffic source family a sweep instantiates
// per load point. A nil spec or empty Kind is uniform iid traffic.
type TrafficSpec struct {
	// Kind is "uniform", "bursty" (Markov on/off sources), "hotspot"
	// (a fraction of requests aimed at the Hot output) or
	// "moving-hotspot" (a hotspot whose hot output advances over time).
	Kind string `json:"kind,omitempty"`
	// MeanBurst is the bursty sources' mean ON-burst length in cycles
	// (values below 1 behave as 1, as in BurstyLoad; a non-finite value
	// is an error).
	MeanBurst float64 `json:"mean_burst,omitempty"`
	// HotFraction is the hotspot kinds' fraction of requests aimed at
	// the hot output, in [0,1].
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// Hot is the moving-hotspot kind's initial hot output; Period is its
	// dwell time in cycles before the hot output advances by Stride
	// (Period < 1 behaves as 1, Stride 0 as 1, as in MovingHotSpot).
	Hot    int `json:"hot,omitempty"`
	Period int `json:"period,omitempty"`
	Stride int `json:"stride,omitempty"`
}

func (t *TrafficSpec) pattern() (LoadPattern, error) {
	if t == nil {
		return nil, nil
	}
	if err := checkUnit("hot_fraction", t.HotFraction); err != nil {
		return nil, err
	}
	if math.IsNaN(t.MeanBurst) || math.IsInf(t.MeanBurst, 0) {
		return nil, fmt.Errorf("edn: mean_burst %g is not finite", t.MeanBurst)
	}
	switch t.Kind {
	case "", "uniform":
		return nil, nil
	case "bursty":
		return BurstyLoad(t.MeanBurst), nil
	case "hotspot":
		f, hot := t.HotFraction, t.Hot
		return func(load float64, rng *Rand) Pattern {
			return HotSpot{Rate: load, Fraction: f, Hot: hot, Rng: rng}
		}, nil
	case "moving-hotspot":
		spec := *t
		return func(load float64, rng *Rand) Pattern {
			return &MovingHotSpot{Rate: load, Fraction: spec.HotFraction,
				Hot: spec.Hot, Period: spec.Period, Stride: spec.Stride, Rng: rng}
		}, nil
	default:
		return nil, fmt.Errorf("edn: unknown traffic kind %q (want uniform, bursty, hotspot or moving-hotspot)", t.Kind)
	}
}

// QueueSpec is the serializable face of QueueOptions, which configures
// either fabric, with the function-typed arbitration named by string.
type QueueSpec struct {
	// Depth is the per-wire FIFO depth: >= 1 bounded, -1 unbounded, 0
	// the unbuffered single-cycle corner.
	Depth int `json:"depth"`
	// Policy is "backpressure" (default) or "drop".
	Policy string `json:"policy,omitempty"`
	// Arbiter is "priority" (default), "roundrobin" or "random". The
	// random factory draws per-switch streams from the job seed; with
	// more than one shard its stream-to-switch assignment depends on
	// scheduling, so it is statistically but not bit-for-bit
	// reproducible (the other two are exact).
	Arbiter string `json:"arbiter,omitempty"`
	// LatencyBuckets and LatencyBucketWidth shape the latency
	// histogram (zero selects the engine defaults).
	LatencyBuckets     int     `json:"latency_buckets,omitempty"`
	LatencyBucketWidth float64 `json:"latency_bucket_width,omitempty"`
}

func (q *QueueSpec) compile(seed uint64) (QueueOptions, error) {
	var qo QueueOptions
	if q == nil {
		return qo, nil
	}
	qo.Depth = q.Depth
	qo.LatencyBuckets, qo.LatencyBucketWidth = q.LatencyBuckets, q.LatencyBucketWidth
	if q.Policy != "" {
		p, err := cliutil.ParsePolicy(q.Policy)
		if err != nil {
			return qo, fmt.Errorf("edn: %w", err)
		}
		qo.Policy = p
	}
	if q.Arbiter != "" {
		f, err := cliutil.ArbiterFactory(q.Arbiter, seed)
		if err != nil {
			return qo, fmt.Errorf("edn: %w", err)
		}
		qo.Factory = f
	}
	return qo, nil
}

// FaultsSpec samples one static Bernoulli fault set for the latency
// and estimate modes: each component of the mode's population dies
// independently with probability Fraction under the sample seed. The
// triple (Mode, Fraction, Seed) pins the draw, so the same spec always
// degrades the same components.
type FaultsSpec struct {
	// Mode is "wires" (default), "switches" or "mixed". Ignored by the
	// dilated engine, whose fault population is always the sub-wires.
	Mode string `json:"mode,omitempty"`
	// Fraction is the marginal death probability in [0,1].
	Fraction float64 `json:"fraction"`
	// Seed drives the sample draw (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

func (f *FaultsSpec) mode() (FaultMode, error) {
	if f == nil || f.Mode == "" {
		return FaultWires, nil
	}
	m, err := ParseFaultMode(f.Mode)
	if err != nil {
		return 0, fmt.Errorf("edn: %w", err)
	}
	return m, nil
}

func (f *FaultsSpec) seed() uint64 {
	if f == nil || f.Seed == 0 {
		return 1
	}
	return f.Seed
}

// AvailabilitySpec is the serializable face of AvailabilityOptions.
type AvailabilitySpec struct {
	// Fractions is the fault-fraction axis. Required.
	Fractions []float64 `json:"fractions"`
	// Mode is the failing population: "wires" (default), "switches" or
	// "mixed".
	Mode string `json:"mode,omitempty"`
	// Load is the offered load per input during measurement (default 1).
	Load float64 `json:"load,omitempty"`
	// WithExpected also evaluates the analytic degradation recursion
	// on every sampled fault set.
	WithExpected bool `json:"with_expected,omitempty"`
}

func (a *AvailabilitySpec) compile() (AvailabilityOptions, error) {
	if a == nil {
		return AvailabilityOptions{}, fmt.Errorf("edn: availability job needs an avail section")
	}
	if err := checkUnit("avail.load", a.Load); err != nil {
		return AvailabilityOptions{}, err
	}
	m, err := FaultWires, error(nil)
	if a.Mode != "" {
		m, err = ParseFaultMode(a.Mode)
		if err != nil {
			return AvailabilityOptions{}, fmt.Errorf("edn: %w", err)
		}
	}
	return AvailabilityOptions{
		Fractions:    a.Fractions,
		Mode:         m,
		Load:         a.Load,
		WithExpected: a.WithExpected,
	}, nil
}

// LifetimeSpec is the serializable face of LifetimeOptions plus the
// lifecycle failure/repair process it embeds.
type LifetimeSpec struct {
	// Epochs is the number of failure/repair epochs. Required.
	Epochs int `json:"epochs"`
	// EpochCycles is the dwell time between mask swaps (default 200).
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// Load is the offered load (open-loop) or per-source demand
	// probability (closed-loop lifetime).
	Load float64 `json:"load,omitempty"`
	// Threshold is the bandwidth-per-input floor for the
	// TimeBelowThreshold metric (<= 0 selects half the healthy
	// analytic bandwidth).
	Threshold float64 `json:"threshold,omitempty"`

	// Mode is the churned population: "wires" (default), "switches" or
	// "mixed". The dilated engine always churns sub-wires.
	Mode string `json:"mode,omitempty"`
	// MTBF and MTTR are the per-component mean epochs alive and mean
	// repair epochs. Both must be finite and >= 1.
	MTBF float64 `json:"mtbf"`
	MTTR float64 `json:"mttr"`
	// Timing is "exponential" (default) or "deterministic".
	Timing string `json:"timing,omitempty"`
	// Blast* configure correlated regional failures (zero BlastRate
	// disables them); RepairWindow batches repairs into maintenance
	// windows. See LifecycleSpec.
	BlastRate    float64 `json:"blast_rate,omitempty"`
	BlastRadius  int     `json:"blast_radius,omitempty"`
	BlastMTTR    float64 `json:"blast_mttr,omitempty"`
	RepairWindow int     `json:"repair_window,omitempty"`
}

func (l *LifetimeSpec) compile() (LifetimeOptions, error) {
	if l == nil {
		return LifetimeOptions{}, fmt.Errorf("edn: lifetime job needs a lifetime section")
	}
	if err := checkUnit("lifetime.load", l.Load); err != nil {
		return LifetimeOptions{}, err
	}
	if math.IsNaN(l.Threshold) || math.IsInf(l.Threshold, 0) {
		return LifetimeOptions{}, fmt.Errorf("edn: lifetime.threshold %g is not finite", l.Threshold)
	}
	mode := FaultWires
	if l.Mode != "" {
		m, err := ParseFaultMode(l.Mode)
		if err != nil {
			return LifetimeOptions{}, fmt.Errorf("edn: %w", err)
		}
		mode = m
	}
	timing := LifecycleExponential
	if l.Timing != "" {
		t, err := ParseLifecycleTiming(l.Timing)
		if err != nil {
			return LifetimeOptions{}, fmt.Errorf("edn: %w", err)
		}
		timing = t
	}
	return LifetimeOptions{
		Epochs:      l.Epochs,
		EpochCycles: l.EpochCycles,
		Load:        l.Load,
		Threshold:   l.Threshold,
		Spec: lifecycle.Spec{
			Mode:         mode,
			MTBF:         l.MTBF,
			MTTR:         l.MTTR,
			Timing:       timing,
			BlastRate:    l.BlastRate,
			BlastRadius:  l.BlastRadius,
			BlastMTTR:    l.BlastMTTR,
			RepairWindow: l.RepairWindow,
		},
	}, nil
}

// ClosedLoopSpec is the serializable face of ClosedLoopOptions. Rate
// and Seed are owned by the sweep machinery (the rate axis and the
// job seed), so the spec does not carry them.
type ClosedLoopSpec struct {
	// Window is the per-source outstanding-request limit W (default 4).
	Window int `json:"window,omitempty"`
	// ServiceCycles is the memory service time (default 1).
	ServiceCycles int `json:"service_cycles,omitempty"`
	// Timeout is the per-attempt round-trip deadline (default 64).
	Timeout int `json:"timeout,omitempty"`
	// MaxAttempts caps issues per request; 0 retries forever.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Retry is "immediate" (default) or "backoff".
	Retry string `json:"retry,omitempty"`
	// BackoffBase and BackoffCap shape the backoff policy.
	BackoffBase int `json:"backoff_base,omitempty"`
	BackoffCap  int `json:"backoff_cap,omitempty"`
	// MaxBacklog bounds the per-source demand queue (default 64).
	MaxBacklog int `json:"max_backlog,omitempty"`
	// SLAZero and SLADeadline define the response-deadline curve: full
	// credit at or under SLAZero, linear decay to none past
	// SLADeadline. Both zero is the unweighted SLA.
	SLAZero     float64 `json:"sla_zero,omitempty"`
	SLADeadline float64 `json:"sla_deadline,omitempty"`
	// LatencyBuckets and LatencyBucketWidth shape the end-to-end
	// latency histogram.
	LatencyBuckets     int     `json:"latency_buckets,omitempty"`
	LatencyBucketWidth float64 `json:"latency_bucket_width,omitempty"`
}

func (c *ClosedLoopSpec) compile() (ClosedLoopOptions, error) {
	var lo ClosedLoopOptions
	if c == nil {
		return lo, nil
	}
	lo = closedloop.Options{
		Window:             c.Window,
		ServiceCycles:      c.ServiceCycles,
		Timeout:            c.Timeout,
		MaxAttempts:        c.MaxAttempts,
		BackoffBase:        c.BackoffBase,
		BackoffCap:         c.BackoffCap,
		MaxBacklog:         c.MaxBacklog,
		SLA:                SLA{Deadline: c.SLADeadline, Zero: c.SLAZero},
		LatencyBuckets:     c.LatencyBuckets,
		LatencyBucketWidth: c.LatencyBucketWidth,
	}
	if c.Retry != "" {
		r, err := ParseRetryPolicy(c.Retry)
		if err != nil {
			return lo, fmt.Errorf("edn: %w", err)
		}
		lo.Retry = r
	}
	return lo, nil
}

// ProbeSpec is the serializable face of ProbeOptions; a nil spec
// attaches no flight recorder. Negative fields are an error, and so is
// a probe on the estimate, availability and drain modes, whose results
// carry no observed report.
type ProbeSpec struct {
	// SampleEvery samples on average one accepted injection in this
	// many; 0 disables tracing (heat only).
	SampleEvery int `json:"sample_every,omitempty"`
	// TraceCap is the trace ring capacity (default 1024).
	TraceCap int `json:"trace_cap,omitempty"`
	// MaxHops caps hops retained per record (default 32).
	MaxHops int `json:"max_hops,omitempty"`
	// Bins is the number of heat time bins (default 64).
	Bins int `json:"bins,omitempty"`
	// Seed drives the sampling jitter (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// NewProbeSpec lifts compiled probe options back into their
// serializable spec (nil for nil): the bridge the CLIs use between
// their probe flags and a JobSpec.
func NewProbeSpec(o *ProbeOptions) *ProbeSpec {
	if o == nil {
		return nil
	}
	return &ProbeSpec{
		SampleEvery: o.SampleEvery,
		TraceCap:    o.TraceCap,
		MaxHops:     o.MaxHops,
		Bins:        o.Bins,
		Seed:        o.Seed,
	}
}

func (p *ProbeSpec) compile() *ProbeOptions {
	if p == nil {
		return nil
	}
	return &probe.Options{
		SampleEvery: p.SampleEvery,
		TraceCap:    p.TraceCap,
		MaxHops:     p.MaxHops,
		Bins:        p.Bins,
		Seed:        p.Seed,
	}
}

// ExplainSpec asks a job for a latency-anatomy report alongside its
// results: per-stage wait/block/service attribution, top switch blame,
// congestion trees, per-source/per-destination flow breakdowns, and the
// five-way request split for closed loops. Valid for the latency,
// saturation, estimate and closedloop modes over the edn or dilated
// engine. Observation-only: the measured results are byte-identical
// with and without an explain section, and the report is invariant to
// the shard count and GOMAXPROCS (it comes from the dedicated
// observation pass, run beside the shards under the first shard seed
// at the full cycle budget). The report is delivered through
// RunOptions.OnExplain — it rides beside the JobResult, never inside
// it.
type ExplainSpec struct {
	// TopK bounds the reported switch-blame and congestion-tree lists
	// (default 8).
	TopK int `json:"top_k,omitempty"`
	// HistBuckets and HistBucketWidth shape the per-stage dwell-time
	// histograms (defaults 64 buckets of width 4 cycles).
	HistBuckets     int     `json:"hist_buckets,omitempty"`
	HistBucketWidth float64 `json:"hist_bucket_width,omitempty"`
}

func (e *ExplainSpec) compile() *AnatomyOptions {
	if e == nil {
		return nil
	}
	return &AnatomyOptions{
		TopK:            e.TopK,
		HistBuckets:     e.HistBuckets,
		HistBucketWidth: e.HistBucketWidth,
	}
}

// SimSpec is the serializable face of SimOptions plus the shard count.
type SimSpec struct {
	// Cycles is the measured cycle budget (default 1000).
	Cycles int `json:"cycles,omitempty"`
	// Warmup cycles run before measurement (default 0; negative is an
	// error).
	Warmup int `json:"warmup,omitempty"`
	// Seed derives every per-point, per-shard stream (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Shards splits each point across parallel independent runs merged
	// exactly: 0 selects GOMAXPROCS, negative is an error.
	Shards int `json:"shards,omitempty"`
}

func (s SimSpec) compile(po *ProbeOptions) SimOptions {
	return simulate.Options{
		Cycles: s.Cycles,
		Warmup: s.Warmup,
		Seed:   s.Seed,
		Probe:  po,
	}
}

// EstimateSpec configures the one-shot estimate mode: the
// co-simulation question "what latency should a message from Src to
// Dst expect under background load Load?" asked by an external
// system-level simulator that delegates network timing to this
// repository (the BookSim2 role).
type EstimateSpec struct {
	// Src is the injecting input terminal; Dst the destination output.
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// JobSpec is one serializable measurement job; see the package note
// above and Run for the dispatch rules.
type JobSpec struct {
	// Mode selects the measurement (the Job* constants).
	Mode string `json:"mode"`
	// Engine selects the network family (the Engine* constants;
	// default EngineEDN). EnginePair is valid for closedloop only.
	Engine string `json:"engine,omitempty"`

	// Geometry names the EDN; required unless Engine is "dilated" with
	// an explicit Dilated geometry. Dilated names the dilated delta for
	// the dilated/pair engines; nil derives the equal-redundancy
	// counterpart of Geometry.
	Geometry *GeometrySpec        `json:"geometry,omitempty"`
	Dilated  *DilatedGeometrySpec `json:"dilated,omitempty"`

	// Load is the single offered load of the latency and estimate
	// modes (default 1). Loads is the saturation axis; Rates the
	// closed-loop demand axis. Every value must lie in [0,1].
	Load  float64   `json:"load,omitempty"`
	Loads []float64 `json:"loads,omitempty"`
	Rates []float64 `json:"rates,omitempty"`

	Traffic  *TrafficSpec      `json:"traffic,omitempty"`
	Queue    *QueueSpec        `json:"queue,omitempty"`
	Faults   *FaultsSpec       `json:"faults,omitempty"`
	Avail    *AvailabilitySpec `json:"avail,omitempty"`
	Lifetime *LifetimeSpec     `json:"lifetime,omitempty"`
	Loop     *ClosedLoopSpec   `json:"loop,omitempty"`
	Estimate *EstimateSpec     `json:"estimate,omitempty"`
	Probe    *ProbeSpec        `json:"probe,omitempty"`
	Explain  *ExplainSpec      `json:"explain,omitempty"`

	// DrainQ is the drain mode's permutation rounds per input.
	DrainQ int `json:"drain_q,omitempty"`

	Sim SimSpec `json:"sim"`
}

// Validate checks the spec's mode/engine combination and the presence
// of every section that combination requires, without running
// anything. Run validates implicitly.
func (s JobSpec) Validate() error {
	_, err := compileJob(s)
	return err
}

// checkUnit rejects a load or rate outside [0,1], NaN included.
func checkUnit(field string, vals ...float64) error {
	for _, v := range vals {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("edn: %s value %g out of [0,1]", field, v)
		}
	}
	return nil
}

// compiledJob is a JobSpec lowered to the facade's Go values.
type compiledJob struct {
	spec   JobSpec
	engine string
	edn    EDNNet     // geometry valid unless engine == dilated
	dil    DilatedNet // geometry valid for the dilated/pair engines
	src    LoadPattern
	lo     ClosedLoopOptions
	opts   SimOptions
	shards int
	aopts  AvailabilityOptions // availability mode
	lopts  LifetimeOptions     // lifetime modes
	anat   *AnatomyOptions     // explain section, when requested
	faults bool                // latency/estimate static fault sample requested
	fmode  FaultMode           // its population (EDN engine)
	ffrac  float64             // its death probability
	fseed  uint64              // its sample seed
}

// net is the network the job measures: the dilated delta for the
// dilated engine, the EDN otherwise (the pair's EDN side).
func (j *compiledJob) net() Net {
	if j.engine == EngineDilated {
		return j.dil
	}
	return j.edn
}

func compileJob(s JobSpec) (*compiledJob, error) {
	j := &compiledJob{spec: s, engine: s.Engine}
	if j.engine == "" {
		j.engine = EngineEDN
	}
	switch j.engine {
	case EngineEDN, EngineDilated, EnginePair:
	default:
		return nil, fmt.Errorf("edn: unknown engine %q (want edn, dilated or pair)", j.engine)
	}
	if j.engine == EnginePair && s.Mode != JobClosedLoop {
		return nil, fmt.Errorf("edn: engine pair is only valid for mode closedloop")
	}

	// Geometries. The EDN config is required for the edn and pair
	// engines and whenever the dilated engine derives its counterpart.
	if s.Geometry != nil {
		cfg, err := s.Geometry.Compile()
		if err != nil {
			return nil, err
		}
		j.edn.Config = cfg
	}
	needEDN := j.engine == EngineEDN || j.engine == EnginePair
	if needEDN && s.Geometry == nil {
		return nil, fmt.Errorf("edn: job needs a geometry section")
	}
	if j.engine == EngineDilated || j.engine == EnginePair {
		switch {
		case s.Dilated != nil:
			dcfg, err := s.Dilated.Compile()
			if err != nil {
				return nil, err
			}
			j.dil.Config = dcfg
		case s.Geometry != nil:
			dcfg, err := DilatedCounterpart(j.edn.Config)
			if err != nil {
				return nil, err
			}
			j.dil.Config = dcfg
		default:
			return nil, fmt.Errorf("edn: dilated job needs a dilated or geometry section")
		}
	}

	var err error
	if j.src, err = s.Traffic.pattern(); err != nil {
		return nil, err
	}
	seed := s.Sim.Seed
	if seed == 0 {
		seed = 1
	}
	if j.edn.Queue, err = s.Queue.compile(seed); err != nil {
		return nil, err
	}
	j.dil.Queue = j.edn.Queue
	j.opts = s.Sim.compile(s.Probe.compile())
	j.shards = s.Sim.Shards
	if j.shards < 0 {
		return nil, fmt.Errorf("edn: shards %d is negative (0 selects GOMAXPROCS)", j.shards)
	}
	if s.Sim.Warmup < 0 {
		return nil, fmt.Errorf("edn: warmup %d is negative", s.Sim.Warmup)
	}
	if p := s.Probe; p != nil && min(p.SampleEvery, p.TraceCap, p.MaxHops, p.Bins) < 0 {
		return nil, fmt.Errorf("edn: probe sample_every, trace_cap, max_hops and bins must not be negative")
	}
	if s.Probe != nil {
		switch s.Mode {
		case JobEstimate, JobAvailability, JobDrain:
			return nil, fmt.Errorf("edn: probe is not supported for mode %q (its result carries no observed report)", s.Mode)
		}
	}
	if err := errors.Join(checkUnit("load", s.Load), checkUnit("loads", s.Loads...), checkUnit("rates", s.Rates...)); err != nil {
		return nil, err
	}
	if s.Explain != nil {
		switch s.Mode {
		case JobLatency, JobSaturation, JobEstimate, JobClosedLoop:
		default:
			return nil, fmt.Errorf("edn: explain is not supported for mode %q (want latency, saturation, estimate or closedloop)", s.Mode)
		}
		if j.engine == EnginePair {
			return nil, fmt.Errorf("edn: explain is not supported for engine pair")
		}
		j.anat = s.Explain.compile()
	}

	switch s.Mode {
	case JobLatency, JobEstimate:
		if s.Mode == JobEstimate {
			if s.Estimate == nil {
				return nil, fmt.Errorf("edn: estimate job needs an estimate section")
			}
			if j.engine != EngineEDN {
				return nil, fmt.Errorf("edn: estimate mode supports the edn engine only")
			}
			if s.Estimate.Src < 0 || s.Estimate.Src >= j.edn.Config.Inputs() {
				return nil, fmt.Errorf("edn: estimate src %d out of [0,%d)", s.Estimate.Src, j.edn.Config.Inputs())
			}
			if s.Estimate.Dst < 0 || s.Estimate.Dst >= j.edn.Config.Outputs() {
				return nil, fmt.Errorf("edn: estimate dst %d out of [0,%d)", s.Estimate.Dst, j.edn.Config.Outputs())
			}
		}
		if s.Faults != nil {
			if err := faults.CheckFraction(s.Faults.Fraction); err != nil {
				return nil, fmt.Errorf("edn: %w", err)
			}
			mode, err := s.Faults.mode()
			if err != nil {
				return nil, err
			}
			j.faults = true
			j.fmode = mode
			j.ffrac = s.Faults.Fraction
			j.fseed = s.Faults.seed()
		}
	case JobSaturation:
		if len(s.Loads) == 0 {
			return nil, fmt.Errorf("edn: saturation job needs at least one load")
		}
	case JobDrain:
		if s.DrainQ < 1 {
			return nil, fmt.Errorf("edn: drain job needs drain_q >= 1")
		}
	case JobAvailability:
		if j.aopts, err = s.Avail.compile(); err != nil {
			return nil, err
		}
	case JobLifetime, JobClosedLoopLifetime:
		if j.lopts, err = s.Lifetime.compile(); err != nil {
			return nil, err
		}
		if s.Mode == JobClosedLoopLifetime {
			if j.lo, err = s.Loop.compile(); err != nil {
				return nil, err
			}
		}
	case JobClosedLoop:
		if len(s.Rates) == 0 {
			return nil, fmt.Errorf("edn: closedloop job needs at least one rate")
		}
		if j.lo, err = s.Loop.compile(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("edn: unknown job mode %q", s.Mode)
	}
	return j, nil
}
