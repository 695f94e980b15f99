package edn

import (
	"context"
	"fmt"
	"strconv"

	"edn/internal/netcache"
	"edn/internal/simulate"
)

// GeometryCache is a byte-budgeted LRU of the immutable artifacts job
// construction pays for — interstage routing tables and compiled fault
// masks — shared read-only across concurrently running jobs. A cache
// hit is bit-for-bit identical to a fresh build (sharing is reference
// sharing of slices the engines never write), so cached and uncached
// runs of the same JobSpec produce identical results; the serve layer
// keeps one of these across requests to amortize table construction.
type GeometryCache = netcache.Cache

// GeometryCacheStats is a point-in-time cache effectiveness snapshot.
type GeometryCacheStats = netcache.Stats

// NewGeometryCache returns a cache bounded to budget bytes of cached
// payload; budget <= 0 selects the 256 MiB default.
func NewGeometryCache(budget int64) *GeometryCache { return netcache.New(budget) }

// RunOptions tune how Run executes a job without changing what it
// measures: all fields are invisible in the results.
type RunOptions struct {
	// Cache, when non-nil, supplies prebuilt routing tables and fault
	// masks; results are bit-for-bit those of an uncached run.
	Cache *GeometryCache
	// OnPoint, when non-nil, streams each sweep point as it completes:
	// index is the point's position on the job's axis, total the axis
	// length, and point the same LatencyResult / AvailabilityResult /
	// ClosedLoopResult the final JobResult carries, for either network.
	// Single-shot modes (latency, drain, lifetime, estimate, pair)
	// deliver one call with the whole result. Called sequentially from
	// the Run goroutine.
	OnPoint func(index, total int, point any)
	// Trace, when non-nil, records the job's span tree: validation,
	// table/mask builds with their cache verdicts, per-point execution
	// with per-shard/merge/observe stages. Observation-only — the
	// JobResult is byte-identical with and without a trace.
	Trace *SpanCollector
	// OnExplain, when non-nil, receives the job's latency-anatomy
	// report — only fired when the spec carries an explain section.
	// Sweeps merge their per-point reports into one; the report rides
	// beside the JobResult, never inside it, so result payloads stay
	// byte-identical whether or not anatomy was requested. Called once,
	// from the Run goroutine, after the measurement completes.
	OnExplain func(*AnatomyReport)
}

// EstimateResult answers the estimate mode's co-simulation question:
// measured latency quantiles for traffic near (Src, Dst) under uniform
// background load, plus the analytic acceptance and the reachability
// verdict an external system simulator needs to schedule around
// faults.
type EstimateResult struct {
	Config Config  `json:"config"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Load   float64 `json:"load"`

	// SrcLive and DstReachable report the fault verdict: whether Src
	// can inject at all and whether Dst is reachable from any live
	// input. Both true on a fault-free network.
	SrcLive      bool `json:"src_live"`
	DstReachable bool `json:"dst_reachable"`
	// Hops is the stage count every delivered packet traverses (l
	// hyperbar stages plus the crossbar stage).
	Hops int `json:"hops"`
	// AnalyticPA is Equation 4's acceptance probability at Load.
	AnalyticPA float64 `json:"analytic_pa"`

	// Measured latency quantiles in cycles under uniform background
	// load at Load, from a sharded measurement run (zero cycles when
	// Src cannot inject or Dst is unreachable — the estimate is then
	// "undeliverable", not a number).
	Cycles      int     `json:"cycles"`
	Throughput  float64 `json:"throughput"`
	LatencyMean float64 `json:"latency_mean"`
	LatencyP50  float64 `json:"latency_p50"`
	LatencyP95  float64 `json:"latency_p95"`
	LatencyP99  float64 `json:"latency_p99"`
	LatencyMax  float64 `json:"latency_max"`
}

// JobResult carries one job's output; exactly the sections the spec's
// mode produces are non-nil. The embedded results are the same values
// the facade functions return, so a JobSpec run through Run, a CLI, or
// the daemon is one measurement with one answer. Every section holds
// either network's results, each labelled by its Network(); only the
// pair engine fills a second section, DilatedClosedLoop.
type JobResult struct {
	Spec JobSpec `json:"spec"`

	// Points holds the latency mode's single point or the saturation
	// mode's per-load curve.
	Points []LatencyResult `json:"points,omitempty"`
	// Availability holds the degradation curve.
	Availability []AvailabilityResult `json:"availability,omitempty"`
	// ClosedLoop holds the closed-loop rate curve; DilatedClosedLoop
	// additionally holds the counterpart's curve for the pair engine.
	ClosedLoop        []ClosedLoopResult `json:"closedloop,omitempty"`
	DilatedClosedLoop []ClosedLoopResult `json:"dilated_closedloop,omitempty"`

	Lifetime           *LifetimeResult           `json:"lifetime,omitempty"`
	ClosedLoopLifetime *ClosedLoopLifetimeResult `json:"closedloop_lifetime,omitempty"`
	Drain              *DrainResult              `json:"drain,omitempty"`
	Estimate           *EstimateResult           `json:"estimate,omitempty"`
}

// Run executes one JobSpec and returns its results: the single
// serializable entry point behind every sweep CLI and the daemon.
// Dispatch is by (Mode, Engine); each combination reproduces the
// corresponding facade function bit for bit (see the jobspec tests for
// the pins). Cancelling ctx stops the job between sweep points.
func Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return RunJob(ctx, spec, RunOptions{})
}

// RunJob is Run with execution options: a shared geometry cache, a
// per-point streaming callback and a span trace. Results are
// independent of all three.
func RunJob(ctx context.Context, spec JobSpec, ro RunOptions) (*JobResult, error) {
	tr := ro.Trace
	vs := tr.Start("validate", "mode", spec.Mode)
	j, err := compileJob(spec)
	tr.End(vs)
	if err != nil {
		return nil, err
	}
	bs := tr.Start("build")
	err = j.wireCache(ro.Cache, tr)
	tr.End(bs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Shard/merge/observe stage timings from the sharded harnesses land
	// under whichever point span is current when they complete.
	if tr != nil {
		j.opts.OnStage = tr.ObserveStage
	}
	// The explain section rides on the sharded harnesses' observation
	// pass, which runs beside each point's shards; simulate hands each
	// point's anatomy report to OnAnatomy on this goroutine after the
	// point's merge, and the reports merge into one job-level report,
	// delivered through ro.OnExplain after the run.
	var explain *AnatomyReport
	var explainErr error
	if j.anat != nil {
		j.opts.Anatomy = j.anat
		j.opts.OnAnatomy = func(r *AnatomyReport) {
			if explain == nil {
				explain = r
			} else if err := explain.Merge(r); err != nil && explainErr == nil {
				explainErr = err
			}
		}
	}
	res := &JobResult{Spec: spec}
	es := tr.Start("execute", "engine", j.engine)
	defer tr.End(es)
	switch spec.Mode {
	case JobLatency:
		// One sharded measurement, seeded as point 0 of a one-load
		// saturation sweep — so latency at Load is bit-for-bit
		// SaturationSweep(net, []float64{Load}, ...)[0].
		err = j.runSaturation(ctx, ro, res, []float64{j.load()})
	case JobSaturation:
		err = j.runSaturation(ctx, ro, res, spec.Loads)
	case JobDrain:
		err = j.runDrain(ro, res)
	case JobAvailability:
		err = j.runAvailability(ctx, ro, res)
	case JobLifetime:
		err = j.runLifetime(ro, res)
	case JobClosedLoop:
		err = j.runClosedLoop(ctx, ro, res)
	case JobClosedLoopLifetime:
		err = j.runClosedLoopLifetime(ro, res)
	case JobEstimate:
		err = j.runEstimate(ro, res)
	default:
		err = fmt.Errorf("edn: unknown job mode %q", spec.Mode)
	}
	if err != nil {
		return nil, err
	}
	if explainErr != nil {
		return nil, explainErr
	}
	if explain != nil && ro.OnExplain != nil {
		ro.OnExplain(explain)
	}
	return res, nil
}

// wireCache swaps cache-built artifacts into the compiled options.
// Everything wired here is immutable and shared by reference, so the
// job's results are bit-for-bit those of an uncached run. Each
// artifact build records a child span under tr's current span with its
// cache verdict ("hit", "cold", or "off" when no cache is wired).
func (j *compiledJob) wireCache(c *GeometryCache, tr *SpanCollector) error {
	if j.faults {
		// The static fault sample of the latency/estimate modes; its
		// identity is the (mode, fraction, seed) triple, so a cache hit
		// replays the identical draw.
		s := tr.Start("fault_masks")
		var hit bool
		var err error
		if j.engine == EngineEDN {
			cfg := j.edn.Config
			if c != nil {
				j.edn.Queue.Faults, hit, err = c.Masks(cfg, j.fmode, j.ffrac, j.fseed)
			} else {
				j.edn.Queue.Faults, err = CompileFaults(cfg, BernoulliFaults(cfg, j.fmode, j.ffrac, NewRand(j.fseed)))
			}
		} else {
			dcfg := j.dil.Config
			if c != nil {
				j.dil.Queue.Faults, hit, err = c.DilatedMasks(dcfg, j.ffrac, j.fseed)
			} else {
				j.dil.Queue.Faults, err = CompileDilatedMasks(dcfg, BernoulliDilatedSubWires(dcfg, j.ffrac, NewRand(j.fseed)))
			}
		}
		tr.SetAttr(s, "cache", cacheVerdict(c, hit))
		tr.End(s)
		if err != nil {
			return err
		}
	}
	if c == nil {
		return nil
	}
	if j.engine != EngineDilated {
		s := tr.Start("edn_tables")
		t, hit, err := c.Tables(j.edn.Config)
		tr.SetAttr(s, "cache", cacheVerdict(c, hit))
		tr.End(s)
		if err != nil {
			return err
		}
		j.edn.Queue.Tables = t
	}
	if j.engine != EngineEDN {
		s := tr.Start("dilated_tables")
		t, hit, err := c.DilatedTables(j.dil.Config)
		tr.SetAttr(s, "cache", cacheVerdict(c, hit))
		tr.End(s)
		if err != nil {
			return err
		}
		j.dil.Queue.Tables = t
	}
	return nil
}

func cacheVerdict(c *GeometryCache, hit bool) string {
	switch {
	case c == nil:
		return "off"
	case hit:
		return "hit"
	default:
		return "cold"
	}
}

// load returns the single-point modes' offered load (default 1,
// saturation — the regime the paper reports).
func (j *compiledJob) load() float64 {
	if j.spec.Load > 0 {
		return j.spec.Load
	}
	return 1
}

// sweep is the one per-point loop of the axis modes (latency,
// saturation, availability and the closed-loop rate axis): for each
// coordinate it checks for cancellation, opens the point span with its
// index and axis attribute, measures the point and streams it.
func sweep(ctx context.Context, ro RunOptions, axis string, values []float64, measure func(i int, v float64) (any, error)) error {
	for i, v := range values {
		if err := ctx.Err(); err != nil {
			return err
		}
		ps := ro.Trace.Start("point", "index", strconv.Itoa(i), axis, formatAxis(v))
		point, err := measure(i, v)
		ro.Trace.End(ps)
		if err != nil {
			return err
		}
		emit(ro, i, len(values), point)
	}
	return nil
}

func (j *compiledJob) runSaturation(ctx context.Context, ro RunOptions, res *JobResult, loads []float64) error {
	return sweep(ctx, ro, "load", loads, func(i int, load float64) (any, error) {
		r, err := simulate.SaturationPoint(j.net(), load, i, j.src, j.opts, j.shards)
		res.Points = append(res.Points, r)
		return r, err
	})
}

func (j *compiledJob) runDrain(ro RunOptions, res *JobResult) error {
	ps := ro.Trace.Start("point", "index", "0")
	r, err := DrainPermutations(j.net(), j.spec.DrainQ, j.opts)
	ro.Trace.End(ps)
	if err != nil {
		return err
	}
	res.Drain = &r
	emit(ro, 0, 1, r)
	return nil
}

func (j *compiledJob) runAvailability(ctx context.Context, ro RunOptions, res *JobResult) error {
	return sweep(ctx, ro, "fraction", j.aopts.Fractions, func(_ int, f float64) (any, error) {
		r, err := simulate.AvailabilityPoint(j.net(), j.aopts, f, j.src, j.opts, j.shards)
		res.Availability = append(res.Availability, r)
		return r, err
	})
}

func (j *compiledJob) runLifetime(ro RunOptions, res *JobResult) error {
	ps := ro.Trace.Start("point", "index", "0")
	r, err := LifetimeSweep(j.net(), j.lopts, j.src, j.opts, j.shards)
	ro.Trace.End(ps)
	if err != nil {
		return err
	}
	res.Lifetime = &r
	emit(ro, 0, 1, r)
	return nil
}

func (j *compiledJob) runClosedLoop(ctx context.Context, ro RunOptions, res *JobResult) error {
	rates := j.spec.Rates
	if j.engine == EnginePair {
		// The paired comparison asserts bit-equal offered demand across
		// both networks at every rate, so it runs as one barriered call
		// (its per-rate shard stages all land under one point span).
		ps := ro.Trace.Start("point", "index", "0")
		ednRes, dilRes, err := MeasureClosedLoopPair(j.edn, j.dil, rates, j.lo, j.opts, j.shards)
		ro.Trace.End(ps)
		if err != nil {
			return err
		}
		res.ClosedLoop, res.DilatedClosedLoop = ednRes, dilRes
		emit(ro, 0, 1, res)
		return nil
	}
	return sweep(ctx, ro, "rate", rates, func(i int, rate float64) (any, error) {
		r, err := simulate.ClosedLoopPoint(j.net(), rate, i, j.lo, j.opts, j.shards)
		res.ClosedLoop = append(res.ClosedLoop, r)
		return r, err
	})
}

func (j *compiledJob) runClosedLoopLifetime(ro RunOptions, res *JobResult) error {
	ps := ro.Trace.Start("point", "index", "0")
	r, err := ClosedLoopLifetimeSweep(j.net(), j.lopts, j.lo, j.opts, j.shards)
	ro.Trace.End(ps)
	if err != nil {
		return err
	}
	res.ClosedLoopLifetime = &r
	emit(ro, 0, 1, r)
	return nil
}

func (j *compiledJob) runEstimate(ro RunOptions, res *JobResult) error {
	est := j.spec.Estimate
	load := j.load()
	cfg := j.edn.Config
	out := &EstimateResult{
		Config:       cfg,
		Src:          est.Src,
		Dst:          est.Dst,
		Load:         load,
		SrcLive:      true,
		DstReachable: true,
		Hops:         cfg.Stages(),
		AnalyticPA:   PA(cfg, load),
	}
	if m := j.edn.Queue.Faults; m != nil && !m.Empty() {
		if li := m.LiveInputs(); li != nil {
			out.SrcLive = li[est.Src]
		}
		live := make([]bool, cfg.Outputs())
		m.ReachableOutputsInto(live)
		out.DstReachable = live[est.Dst]
	}
	if out.SrcLive && out.DstReachable {
		ps := ro.Trace.Start("point", "index", "0", "load", formatAxis(load))
		r, err := simulate.SaturationPoint(j.edn, load, 0, j.src, j.opts, j.shards)
		ro.Trace.End(ps)
		if err != nil {
			return err
		}
		out.Cycles = r.Cycles
		out.Throughput = r.Throughput
		out.LatencyMean = r.LatencyMean
		out.LatencyP50 = r.LatencyP50
		out.LatencyP95 = r.LatencyP95
		out.LatencyP99 = r.LatencyP99
		out.LatencyMax = r.LatencyMax
	}
	res.Estimate = out
	emit(ro, 0, 1, *out)
	return nil
}

func emit(ro RunOptions, i, total int, point any) {
	if ro.OnPoint != nil {
		ro.OnPoint(i, total, point)
	}
}

// formatAxis renders a sweep-axis coordinate for a span attribute:
// shortest exact float form, deterministic for a given spec.
func formatAxis(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
