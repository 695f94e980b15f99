package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

// jobFlags is the flag group of every packet-level subcommand: the
// EDN(a,b,c,l) geometry, the queue (-depth, -policy, -arb), the run
// shape (-cycles, -warmup, -shards, -seed) and the JobSpec pair
// (-spec, -dump-spec). Flags a subcommand does not register stay nil.
type jobFlags struct {
	a, b, c, l             *int
	depth                  *int
	policy, arb            *string
	cycles, warmup, shards *int
	seed                   *uint64
	spec                   *string
	dump                   *bool
}

// addJobFlags registers the group with one subcommand's defaults.
// cycles 0 leaves -cycles out (lifetimes count epochs); job false
// leaves out -shards and the spec pair (trace drives an engine
// directly, not through a JobSpec).
func addJobFlags(fs *flag.FlagSet, geo [4]int, policy string, cycles int, job bool) *jobFlags {
	j := &jobFlags{
		depth:  fs.Int("depth", 4, "per-wire FIFO depth (-1 unbounded, 0 unbuffered resubmission)"),
		policy: fs.String("policy", policy, "blocked-packet policy: backpressure, drop"),
		arb:    fs.String("arb", "priority", "arbitration: priority, roundrobin, random"),
		warmup: fs.Int("warmup", 500, "warmup cycles discarded before measuring"),
		seed:   fs.Uint64("seed", 1, "RNG seed"),
	}
	j.a, j.b, j.c, j.l = cliutil.GeometryFlags(fs, geo[0], geo[1], geo[2], geo[3])
	if cycles > 0 {
		j.cycles = fs.Int("cycles", cycles, "measured cycles per point")
	}
	if job {
		j.shards = fs.Int("shards", 0, "parallel shards (0 = GOMAXPROCS)")
		j.spec = fs.String("spec", "", "run this JobSpec JSON file and emit the JobResult as JSON (ignores the measurement flags)")
		j.dump = fs.Bool("dump-spec", false, "print the JobSpec the flags describe as JSON and exit without running")
	}
	return j
}

func (j *jobFlags) config() (edn.Config, error) { return edn.New(*j.a, *j.b, *j.c, *j.l) }

// job is the JobSpec of mode the group's flags describe.
func (j *jobFlags) job(mode string) edn.JobSpec {
	spec := edn.JobSpec{
		Mode:     mode,
		Geometry: &edn.GeometrySpec{A: *j.a, B: *j.b, C: *j.c, L: *j.l},
		Queue:    &edn.QueueSpec{Depth: *j.depth, Policy: *j.policy, Arbiter: *j.arb},
		Sim:      edn.SimSpec{Warmup: *j.warmup, Seed: *j.seed, Shards: *j.shards},
	}
	if j.cycles != nil {
		spec.Sim.Cycles = *j.cycles
	}
	return spec
}

// run executes specs in order through edn.Run — or, with -dump-spec,
// prints them as JSON instead, one document per job, and returns no
// results: a nil slice means the output is already written.
func (j *jobFlags) run(w io.Writer, specs ...edn.JobSpec) ([]*edn.JobResult, error) {
	if *j.dump {
		for _, s := range specs {
			if err := cliutil.WriteJSON(w, s); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	results := make([]*edn.JobResult, len(specs))
	for i, s := range specs {
		var err error
		if results[i], err = edn.Run(context.Background(), s); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// replay runs the saved JobSpec at path, whatever its mode, and prints
// the JobResult as JSON — exactly what the daemon answers for it.
func replay(w io.Writer, path string) error {
	var spec edn.JobSpec
	if err := cliutil.LoadSpec(path, &spec); err != nil {
		return err
	}
	res, err := edn.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	return cliutil.WriteJSON(w, res)
}

// render writes a JobSpec sweep in its -format: table runs the
// subcommand's table writer, csv renders the same rows, and json prints
// every job's JobResult — byte for byte the -spec replays of the
// -dump-spec documents.
func render(w io.Writer, format string, cols []cliutil.Column, rows [][]any, results []*edn.JobResult, table func() error) error {
	switch format {
	case "table":
		return table()
	case "csv":
		return cliutil.WriteCSV(w, cols, rows)
	case "json":
		for _, res := range results {
			if err := cliutil.WriteJSON(w, res); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown format %q", format)
}

// counterpart resolves the -dilated comparison's equal-redundancy
// dilated delta; nil without the flag.
func counterpart(on bool, cfg edn.Config) (*edn.DilatedDelta, error) {
	if !on {
		return nil, nil
	}
	dcfg, err := cliutil.DilatedCounterpart(cfg)
	if err != nil {
		return nil, err
	}
	return &dcfg, nil
}

// withDilated appends spec's twin on the dilated engine when dcfg is
// set: the same job under the same seeds and shard split, so both
// networks see the identical per-input injection replay. The twin
// fails and churns only its sub-wires, so its own copy of an avail
// section fails wires, and its copy of a lifetime section drops the
// population, blast overlay and repair batching that name EDN
// structure (the dilated engine rejects them).
func withDilated(spec edn.JobSpec, dcfg *edn.DilatedDelta) []edn.JobSpec {
	if dcfg == nil {
		return []edn.JobSpec{spec}
	}
	dspec := spec
	dspec.Engine = edn.EngineDilated
	if spec.Avail != nil {
		avail := *spec.Avail
		avail.Mode = "wires"
		dspec.Avail = &avail
	}
	if spec.Lifetime != nil {
		life := *spec.Lifetime
		if life.Mode != "wires" {
			life.Mode = ""
		}
		if life.RepairWindow > 1 {
			life.RepairWindow = 0
		}
		life.BlastRate = 0
		dspec.Lifetime = &life
	}
	return []edn.JobSpec{spec, dspec}
}

// tableHead writes a sweep table's title line and, with -dilated, the
// counterpart's wire-cost line under it.
func tableHead(w io.Writer, cfg edn.Config, dcfg *edn.DilatedDelta, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
	if dcfg != nil {
		cliutil.DilatedHeader(w, cfg, *dcfg)
	}
}

// writeProbes renders the -trace/-heatmap reports, each under its label.
func writeProbes(w io.Writer, pf *cliutil.ProbeFlagSet, labels []string, reports []*edn.ProbeReport) error {
	if !pf.Enabled() {
		return nil
	}
	for i, rep := range reports {
		if labels[i] != "" {
			fmt.Fprintln(w, labels[i])
		}
		if err := cliutil.WriteProbeReport(w, rep, *pf.Heatmap); err != nil {
			return err
		}
	}
	return nil
}

// trafficFlags is the open-loop traffic group: the pattern and its
// shape knobs. hot, period and stride exist only where moving hot
// spots do (explain).
type trafficFlags struct {
	kind                *string
	burst, hotFraction  *float64
	hot, period, stride *int
}

func addTrafficFlags(fs *flag.FlagSet, hotFraction float64, moving bool) *trafficFlags {
	kinds := "uniform, onoff, hotspot"
	if moving {
		kinds += ", moving-hotspot"
	}
	t := &trafficFlags{
		kind:        fs.String("traffic", "uniform", "traffic: "+kinds),
		burst:       fs.Float64("burst", 16, "mean burst length for onoff traffic"),
		hotFraction: fs.Float64("hot-fraction", hotFraction, "fraction of requests aimed at the hot output"),
	}
	if moving {
		t.hot = fs.Int("hot", 0, "initial hot output (hotspot, moving-hotspot)")
		t.period = fs.Int("period", 0, "cycles between hot-spot moves (moving-hotspot; below 1 moves every cycle)")
		t.stride = fs.Int("stride", 1, "hot-output step per move (moving-hotspot)")
	}
	return t
}

// spec compiles the group into the JobSpec traffic section; uniform is
// the nil default.
func (t *trafficFlags) spec() (*edn.TrafficSpec, error) {
	var hot int
	if t.hot != nil {
		hot = *t.hot
	}
	switch *t.kind {
	case "uniform":
		return nil, nil
	case "onoff":
		return &edn.TrafficSpec{Kind: "bursty", MeanBurst: *t.burst}, nil
	case "hotspot":
		return &edn.TrafficSpec{Kind: "hotspot", HotFraction: *t.hotFraction, Hot: hot}, nil
	case "moving-hotspot":
		if t.hot != nil {
			return &edn.TrafficSpec{Kind: "moving-hotspot", HotFraction: *t.hotFraction,
				Hot: hot, Period: *t.period, Stride: *t.stride}, nil
		}
	}
	return nil, fmt.Errorf("unknown traffic %q", *t.kind)
}

// retryFlags is the closed-loop retry group: the outstanding-request
// window, the attempt timeout, the attempt cap and the retry policy.
type retryFlags struct {
	window, timeout, attempts *int
	retry                     *string
}

// addRetryFlags registers the group; loop names the attempt cap
// -max-attempts, explain and trace -attempts.
func addRetryFlags(fs *flag.FlagSet, timeout int, attemptsFlag string, attempts int) *retryFlags {
	return &retryFlags{
		window:   fs.Int("window", 4, "outstanding requests per source"),
		timeout:  fs.Int("timeout", timeout, "attempt timeout in cycles"),
		attempts: fs.Int(attemptsFlag, attempts, "attempts before giving a request up (0 = never)"),
		retry:    fs.String("retry", "backoff", "retry policy: immediate, backoff"),
	}
}

// The short backoff explain and trace run the closed loop with.
const shortBackoffBase, shortBackoffCap = 2, 16

// spec is the group's closed-loop JobSpec section (explain).
func (r *retryFlags) spec() *edn.ClosedLoopSpec {
	return &edn.ClosedLoopSpec{Window: *r.window, Timeout: *r.timeout, MaxAttempts: *r.attempts,
		Retry: *r.retry, BackoffBase: shortBackoffBase, BackoffCap: shortBackoffCap}
}

// options is the group as facade options (trace).
func (r *retryFlags) options() (edn.ClosedLoopOptions, error) {
	retry, err := edn.ParseRetryPolicy(*r.retry)
	return edn.ClosedLoopOptions{Window: *r.window, Timeout: *r.timeout, MaxAttempts: *r.attempts,
		Retry: retry, BackoffBase: shortBackoffBase, BackoffCap: shortBackoffCap}, err
}

// churnFlags is the lifetime churn group: epochs, the per-component
// failure and repair clocks, the churning population and the repair
// batching. Blast overlays exist only on lifetime.
type churnFlags struct {
	epochs, epochCycles, repairWindow *int
	mtbf, mttr                        *float64
	timing, mode                      *string
	blastRate                         *float64
	blastRadius                       *int
}

func addChurnFlags(fs *flag.FlagSet, blast bool) *churnFlags {
	c := &churnFlags{
		epochs:       fs.Int("epochs", 60, "failure/repair epochs to simulate"),
		epochCycles:  fs.Int("epoch-cycles", 200, "network cycles per epoch"),
		mtbf:         fs.Float64("mtbf", 40, "mean epochs between failures per component"),
		mttr:         fs.Float64("mttr", 10, "mean epochs to repair a component"),
		timing:       fs.String("timing", "exponential", "holding times: exponential, deterministic"),
		mode:         fs.String("mode", "wires", "churning population: wires, switches, mixed"),
		repairWindow: fs.Int("repair-window", 0, "batch repairs to epoch-multiple maintenance windows (0/1 = immediate)"),
		blastRate:    new(float64),
		blastRadius:  new(int),
	}
	if blast {
		c.blastRate = fs.Float64("blast-rate", 0, "per-epoch probability of a correlated switch-block blast")
		c.blastRadius = fs.Int("blast-radius", 1, "blast kills switches within this radius of a random center")
	}
	return c
}

// spec validates the group and compiles it into the job's lifetime
// section at load, plus the lifecycle process the table title quotes
// (its steady-state dead fraction).
func (c *churnFlags) spec(load float64) (*edn.LifetimeSpec, edn.LifecycleSpec, error) {
	mode, err := edn.ParseFaultMode(*c.mode)
	if err != nil {
		return nil, edn.LifecycleSpec{}, err
	}
	timing, err := edn.ParseLifecycleTiming(*c.timing)
	if err != nil {
		return nil, edn.LifecycleSpec{}, err
	}
	life := &edn.LifetimeSpec{
		Epochs: *c.epochs, EpochCycles: *c.epochCycles, Load: load,
		Mode: *c.mode, MTBF: *c.mtbf, MTTR: *c.mttr, Timing: *c.timing,
		BlastRate: *c.blastRate, BlastRadius: *c.blastRadius, RepairWindow: *c.repairWindow,
	}
	return life, edn.LifecycleSpec{Mode: mode, MTBF: *c.mtbf, MTTR: *c.mttr, Timing: timing,
		BlastRate: *c.blastRate, BlastRadius: *c.blastRadius, RepairWindow: *c.repairWindow}, nil
}
