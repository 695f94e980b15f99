package main

import (
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

func cmdLoop(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{4, 4, 2, 3}, "drop", 4000, true)
	ratesFlag := fs.String("rates", "0.2,0.4,0.6,0.8,1.0", "comma-separated demand rates to sweep (requests per source per cycle)")
	rf := addRetryFlags(fs, 64, "max-attempts", 0)
	service := fs.Int("service", 1, "memory service cycles per request")
	backoffBase := fs.Int("backoff-base", 2, "backoff delay after the first timeout, cycles")
	backoffCap := fs.Int("backoff-cap", 64, "backoff delay ceiling, cycles")
	maxBacklog := fs.Int("max-backlog", 64, "demand arrivals queued per source before shedding")
	slaDeadline := fs.Float64("sla-deadline", 0, "SLA: zero credit past this end-to-end latency (0 = credit every completion)")
	slaZero := fs.Float64("sla-zero", 0, "SLA: full credit at or under this latency, linear decay to the deadline")
	format := fs.String("format", "table", "output: table, csv, json")
	dilatedCmp := cliutil.DilatedFlag(fs, "replay-matched closed-loop demand")
	lifetime := fs.Bool("lifetime", false, "run the workload over a churned service life instead of a rate sweep")
	cf := addChurnFlags(fs, false)
	rate := fs.Float64("rate", 0.5, "lifetime: demand rate per source per cycle")
	pf := cliutil.ProbeFlags(fs)
	return func() error {
		if *jf.spec != "" {
			return replay(w, *jf.spec)
		}
		cfg, err := jf.config()
		if err != nil {
			return err
		}
		dcfg, err := counterpart(*dilatedCmp, cfg)
		if err != nil {
			return err
		}
		spec := jf.job(edn.JobClosedLoop)
		spec.Loop = &edn.ClosedLoopSpec{
			Window:        *rf.window,
			ServiceCycles: *service,
			Timeout:       *rf.timeout,
			MaxAttempts:   *rf.attempts,
			Retry:         *rf.retry,
			BackoffBase:   *backoffBase,
			BackoffCap:    *backoffCap,
			MaxBacklog:    *maxBacklog,
			SLAZero:       *slaZero,
			SLADeadline:   *slaDeadline,
		}
		spec.Probe = edn.NewProbeSpec(pf.Options())

		// Either comparison is two jobs, one per engine, under the same
		// shard seeding, so both networks draw bit-identical demand.
		if *lifetime {
			var lspec edn.LifecycleSpec
			if spec.Lifetime, lspec, err = cf.spec(*rate); err != nil {
				return err
			}
			spec.Mode = edn.JobClosedLoopLifetime
			results, err := jf.run(w, withDilated(spec, dcfg)...)
			if results == nil {
				return err
			}
			return renderLoopLifetime(w, *format, cfg, dcfg, spec, lspec, results, pf)
		}

		if spec.Rates, err = cliutil.ParseFloatList(*ratesFlag, 0, 1, "rate"); err != nil {
			return err
		}
		results, err := jf.run(w, withDilated(spec, dcfg)...)
		if results == nil {
			return err
		}
		return renderLoopSweep(w, *format, cfg, dcfg, spec, results, pf)
	}
}

func renderLoopSweep(w io.Writer, format string, cfg edn.Config, dcfg *edn.DilatedDelta, spec edn.JobSpec, results []*edn.JobResult, pf *cliutil.ProbeFlagSet) error {
	cols := []cliutil.Column{
		{Name: "rate", Format: "%5.2f"},
		{Name: "offered_per_source", Head: "offered", Format: "%8.3f"},
		{Name: "goodput_per_source", Head: "goodput", Format: "%8.3f"},
		{Name: "sla_attainment", Head: "sla", Format: "%6.3f"},
		{Name: "latency_p50", Head: "p50", Format: "%6.0f"},
		{Name: "latency_p95", Head: "p95", Format: "%6.0f"},
		{Name: "latency_p99", CSVOnly: true},
		{Name: "retries", Format: "%8d"},
		{Name: "timeouts", CSVOnly: true},
		{Name: "givenup", Head: "givenup", Format: "%8d"},
		{Name: "shed", CSVOnly: true},
	}
	if dcfg != nil {
		cols = append(cols,
			cliutil.Column{Name: "dilated_goodput_per_source", Head: "dil-goodput", Format: "%12.3f"},
			cliutil.Column{Name: "dilated_sla_attainment", Head: "dil-sla", Format: "%8.3f"},
			cliutil.Column{Name: "dilated_latency_p95", Head: "dil-p95", Format: "%8.0f"},
			cliutil.Column{Name: "dilated_retries", CSVOnly: true},
		)
	}
	var labels []string
	var probes []*edn.ProbeReport
	rows := make([][]any, len(results[0].ClosedLoop))
	for i, r := range results[0].ClosedLoop {
		rows[i] = []any{
			r.Rate, r.OfferedRate, r.Goodput, r.SLAAttainment,
			r.LatencyP50, r.LatencyP95, r.LatencyP99,
			r.Ledger.Retries, r.Ledger.Timeouts, r.Ledger.GivenUp, r.Ledger.Shed,
		}
		if dcfg != nil {
			d := results[1].ClosedLoop[i]
			rows[i] = append(rows[i], d.Goodput, d.SLAAttainment, d.LatencyP95, d.Ledger.Retries)
		}
		labels = append(labels, fmt.Sprintf("probe @ rate=%g", spec.Rates[i]))
		probes = append(probes, r.Observed)
	}
	if dcfg != nil {
		for i, d := range results[1].ClosedLoop {
			labels = append(labels, fmt.Sprintf("probe @ rate=%g (dilated)", spec.Rates[i]))
			probes = append(probes, d.Observed)
		}
	}
	return render(w, format, cols, rows, results, func() error {
		tableHead(w, cfg, dcfg, "%v closed loop — %d sources, %d memory ports, W=%d, timeout=%d, retry=%s, depth=%d, policy=%v\n",
			cfg, cfg.Inputs(), cfg.Outputs(), spec.Loop.Window, spec.Loop.Timeout, spec.Loop.Retry, spec.Queue.Depth, spec.Queue.Policy)
		if err := cliutil.WriteTable(w, cols, rows); err != nil {
			return err
		}
		return writeProbes(w, pf, labels, probes)
	})
}

func renderLoopLifetime(w io.Writer, format string, cfg edn.Config, dcfg *edn.DilatedDelta, spec edn.JobSpec, lspec edn.LifecycleSpec, results []*edn.JobResult, pf *cliutil.ProbeFlagSet) error {
	cols := []cliutil.Column{
		{Name: "epoch", Format: "%5d"},
		{Name: "dead_fraction", Head: "deadfrac", Format: "%9.3f"},
		{Name: "reachable_fraction", Head: "reachable", Format: "%10.3f"},
		{Name: "goodput_per_source", Head: "goodput", Format: "%8.3f"},
		{Name: "sla_attainment", Head: "sla", Format: "%6.3f"},
		{Name: "latency_p95", Head: "p95", Format: "%6.0f"},
		{Name: "retries_per_source", Head: "retries", Format: "%8.4f"},
		{Name: "timeouts_per_source", CSVOnly: true},
	}
	res := results[0].ClosedLoopLifetime
	var dres *edn.ClosedLoopLifetimeResult
	if dcfg != nil {
		dres = results[1].ClosedLoopLifetime
		cols = append(cols,
			cliutil.Column{Name: "dilated_goodput_per_source", Head: "dil-goodput", Format: "%12.3f"},
			cliutil.Column{Name: "dilated_sla_attainment", Head: "dil-sla", Format: "%8.3f"},
			cliutil.Column{Name: "dilated_latency_p95", CSVOnly: true},
		)
	}
	rows := make([][]any, spec.Lifetime.Epochs)
	for e := range rows {
		rows[e] = []any{
			e, res.DeadFraction.Mean(e), res.Reachable.Mean(e),
			res.Goodput.Mean(e), res.SLAAttainment.Mean(e),
			res.LatencyP95.Mean(e), res.Retries.Mean(e), res.Timeouts.Mean(e),
		}
		if dres != nil {
			rows[e] = append(rows[e], dres.Goodput.Mean(e), dres.SLAAttainment.Mean(e), dres.LatencyP95.Mean(e))
		}
	}
	return render(w, format, cols, rows, results, func() error {
		tableHead(w, cfg, dcfg, "%v closed loop lifetime — mtbf=%g mttr=%g (steady-state dead %.1f%%), rate=%g, W=%d, retry=%s, repair-window=%d\n",
			cfg, spec.Lifetime.MTBF, spec.Lifetime.MTTR, 100*lspec.DeadFractionSteadyState(),
			spec.Lifetime.Load, spec.Loop.Window, spec.Loop.Retry, spec.Lifetime.RepairWindow)
		if err := cliutil.WriteTable(w, cols, rows); err != nil {
			return err
		}
		loopLifetimeSummary(w, "", res)
		labels, probes := []string{""}, []*edn.ProbeReport{res.Observed}
		if dres != nil {
			loopLifetimeSummary(w, "dilated ", dres)
			labels, probes = append(labels, "dilated probe:"), append(probes, dres.Observed)
		}
		return writeProbes(w, pf, labels, probes)
	})
}

func loopLifetimeSummary(w io.Writer, prefix string, r *edn.ClosedLoopLifetimeResult) {
	fmt.Fprintf(w, "%slifetime: goodput=%.3f/source sla=%.3f downtime-cost=%.1f%% retries=%d timeouts=%d givenup=%d\n",
		prefix, r.GoodputOverall, r.SLAAttainmentOverall, 100*r.CostOfDowntime,
		r.Ledger.Retries, r.Ledger.Timeouts, r.Ledger.GivenUp)
}
