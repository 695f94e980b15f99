package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"edn"
	"edn/internal/cliutil"
)

func cmdLifetime(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{4, 4, 2, 3}, "drop", 0, true)
	cf := addChurnFlags(fs, true)
	load := fs.Float64("load", 1, "offered load per input")
	threshold := fs.Float64("threshold", 0, "bandwidth/input floor for time-below-threshold (0 = half of healthy)")
	format := fs.String("format", "table", "output: table, csv, json")
	dilatedCmp := cliutil.DilatedFlag(fs, "measured sub-wire churn from the same traffic replay")
	pf := cliutil.ProbeFlags(fs)
	return func() error {
		if *jf.spec != "" {
			return replay(w, *jf.spec)
		}
		cfg, err := jf.config()
		if err != nil {
			return err
		}
		life, lspec, err := cf.spec(*load)
		if err != nil {
			return err
		}
		if *load <= 0 || *load > 1 {
			return fmt.Errorf("load %g out of (0,1]", *load)
		}
		life.Threshold = *threshold
		spec := jf.job(edn.JobLifetime)
		spec.Lifetime, spec.Probe = life, edn.NewProbeSpec(pf.Options())
		dcfg, err := counterpart(*dilatedCmp, cfg)
		if err != nil {
			return err
		}
		results, err := jf.run(w, withDilated(spec, dcfg)...)
		if results == nil {
			return err
		}
		res := results[0].Lifetime

		cols := []cliutil.Column{
			{Name: "epoch", Format: "%5d"},
			{Name: "dead_fraction", Head: "deadfrac", Format: "%9.3f"},
			{Name: "throughput_per_input", Head: "thr/input", Format: "%10.3f"},
			{Name: "throughput_ci95", CSVOnly: true},
			{Name: "reachable_fraction", Head: "reachable", Format: "%10.3f"},
			{Name: "latency_p99", Head: "p99", Format: "%8.0f"},
			{Name: "parked_per_cycle", Head: "parked", Format: "%7.1f"},
		}
		var dres *edn.LifetimeResult
		if dcfg != nil {
			dres = results[1].Lifetime
			cols = append(cols,
				cliutil.Column{Name: "dilated_dead_fraction", CSVOnly: true},
				cliutil.Column{Name: "dilated_throughput_per_input", Head: "dil-thr/in", Format: "%11.3f"},
				cliutil.Column{Name: "dilated_reachable_fraction", CSVOnly: true},
				cliutil.Column{Name: "dilated_latency_p99", Head: "dil-p99", Format: "%8.0f"},
			)
		}
		rows := make([][]any, res.Epochs)
		for e := range rows {
			rows[e] = []any{
				e, res.DeadFraction.Mean(e), res.Bandwidth.Mean(e), res.Bandwidth.CI95(e),
				res.Reachable.Mean(e), res.LatencyP99.Mean(e), res.Parked.Mean(e),
			}
			if dres != nil {
				rows[e] = append(rows[e], dres.DeadFraction.Mean(e), dres.Bandwidth.Mean(e),
					dres.Reachable.Mean(e), dres.LatencyP99.Mean(e))
			}
		}
		return render(w, *format, cols, rows, results, func() error {
			tableHead(w, cfg, dcfg, "%v — %d inputs, %d paths/pair, mode=%s, mtbf=%g, mttr=%g (steady-state dead %.1f%%), timing=%s, load=%g, depth=%d, policy=%s\n",
				cfg, cfg.Inputs(), cfg.PathCount(), lspec.Mode, lspec.MTBF, lspec.MTTR,
				100*lspec.DeadFractionSteadyState(), lspec.Timing, *load, *jf.depth, *jf.policy)
			if err := cliutil.WriteTable(w, cols, rows); err != nil {
				return err
			}
			lifetimeSummary(w, "", "wires", res)
			labels, probes := []string{""}, []*edn.ProbeReport{res.Observed}
			if dres != nil {
				lifetimeSummary(w, "dilated ", "sub-wires", dres)
				labels, probes = append(labels, "dilated probe:"), append(probes, dres.Observed)
			}
			return writeProbes(w, pf, labels, probes)
		})
	}
}

// lifetimeSummary writes one network's lifetime aggregates under the
// epoch table, and its stranded-packet count when packets stranded.
func lifetimeSummary(w io.Writer, prefix, wires string, r *edn.LifetimeResult) {
	fmt.Fprintf(w, "%slifetime: thr=%.3f/input delivered=%.1f%% below-threshold(%.3f)=%.1f%% of epochs",
		prefix, r.LifetimeBandwidth, 100*r.DeliveredFraction, r.Threshold, 100*r.TimeBelowThreshold)
	if !math.IsNaN(r.RecoveryHalfLife) {
		fmt.Fprintf(w, " recovery-half-life=%.1f epochs", r.RecoveryHalfLife)
	}
	fmt.Fprintln(w)
	if r.Stranded > 0 {
		fmt.Fprintf(w, "%sstranded: %d packets died on %s that failed under them\n", prefix, r.Stranded, wires)
	}
}
