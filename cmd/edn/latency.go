package main

import (
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

// latencyColumns is the sweep schema: the table shows the headline
// subset, CSV carries everything.
var latencyColumns = []cliutil.Column{
	{Name: "load", Format: "%8.3f"},
	{Name: "throughput", Head: "thr/cycle", Format: "%10.2f"},
	{Name: "accepted_fraction", Head: "accepted", Format: "%9.4f"},
	{Name: "latency_p50", Head: "p50", Format: "%8.0f"},
	{Name: "latency_p95", Head: "p95", Format: "%8.0f"},
	{Name: "latency_p99", Head: "p99", Format: "%8.0f"},
	{Name: "latency_mean", Head: "mean", Format: "%8.2f"},
	{Name: "latency_max", CSVOnly: true},
	{Name: "avg_queued", CSVOnly: true},
	{Name: "injected", CSVOnly: true},
	{Name: "refused", Format: "%9d"},
	{Name: "delivered", CSVOnly: true},
	{Name: "dropped", Format: "%9d"},
}

// latencyDilatedColumns follow latencyColumns with -dilated.
var latencyDilatedColumns = []cliutil.Column{
	{Name: "dilated_throughput", Head: "dil-thr", Format: "%9.2f"},
	{Name: "dilated_accepted_fraction", Head: "dil-acc", Format: "%9.4f"},
	{Name: "dilated_latency_p50", CSVOnly: true},
	{Name: "dilated_latency_p95", CSVOnly: true},
	{Name: "dilated_latency_p99", Head: "dil-p99", Format: "%9.0f"},
	{Name: "dilated_latency_mean", CSVOnly: true},
	{Name: "dilated_refused", CSVOnly: true},
	{Name: "dilated_dropped", CSVOnly: true},
}

func cmdLatency(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{64, 16, 4, 2}, "backpressure", 2000, true)
	loadsFlag := fs.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "comma-separated offered loads to sweep")
	tf := addTrafficFlags(fs, 0.1, false)
	format := fs.String("format", "table", "output: table, csv, json")
	drain := fs.Int("drain", 0, "instead of a sweep, drain this many permutation packets per input")
	dilatedCmp := cliutil.DilatedFlag(fs, "measured packet-level sweep from the same traffic replay")
	pf := cliutil.ProbeFlags(fs)
	return func() error {
		if *jf.spec != "" {
			return replay(w, *jf.spec)
		}
		cfg, err := jf.config()
		if err != nil {
			return err
		}
		spec := jf.job(edn.JobSaturation)
		spec.Probe = edn.NewProbeSpec(pf.Options())
		if *drain > 0 {
			if *dilatedCmp {
				return fmt.Errorf("-dilated applies to load sweeps, not -drain")
			}
			spec.Mode, spec.DrainQ = edn.JobDrain, *drain
			results, err := jf.run(w, spec)
			if results == nil {
				return err
			}
			return renderDrain(w, cfg, *drain, *jf.depth, results[0].Drain)
		}
		if spec.Loads, err = cliutil.ParseFloatList(*loadsFlag, 0, 1, "load"); err != nil {
			return err
		}
		if spec.Traffic, err = tf.spec(); err != nil {
			return err
		}
		dcfg, err := counterpart(*dilatedCmp, cfg)
		if err != nil {
			return err
		}
		results, err := jf.run(w, withDilated(spec, dcfg)...)
		if results == nil {
			return err
		}

		cols := latencyColumns
		var dres []edn.LatencyResult
		if dcfg != nil {
			cols = append(append([]cliutil.Column{}, latencyColumns...), latencyDilatedColumns...)
			dres = results[1].Points
		}
		var labels []string
		var probes []*edn.ProbeReport
		rows := make([][]any, len(results[0].Points))
		for i, r := range results[0].Points {
			rows[i] = []any{
				spec.Loads[i], r.Throughput, r.AcceptedFraction,
				r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMean, r.LatencyMax,
				r.AvgQueued, r.Injected, r.Refused, r.Delivered, r.Dropped,
			}
			labels = append(labels, fmt.Sprintf("probe @ load=%g", spec.Loads[i]))
			probes = append(probes, r.Observed)
		}
		for i, d := range dres {
			rows[i] = append(rows[i], d.Throughput, d.AcceptedFraction,
				d.LatencyP50, d.LatencyP95, d.LatencyP99, d.LatencyMean, d.Refused, d.Dropped)
			labels = append(labels, fmt.Sprintf("probe @ load=%g (dilated)", spec.Loads[i]))
			probes = append(probes, d.Observed)
		}
		return render(w, *format, cols, rows, results, func() error {
			tableHead(w, cfg, dcfg, "%v — %d inputs, %d outputs, depth=%d, policy=%s, traffic=%s\n",
				cfg, cfg.Inputs(), cfg.Outputs(), *jf.depth, *jf.policy, *tf.kind)
			if err := cliutil.WriteTable(w, cols, rows); err != nil {
				return err
			}
			return writeProbes(w, pf, labels, probes)
		})
	}
}

func renderDrain(w io.Writer, cfg edn.Config, q, depth int, res *edn.DrainResult) error {
	fmt.Fprintf(w, "%v closed-loop drain of %d permutation packets per input (depth=%d)\n",
		cfg, q, depth)
	fmt.Fprintf(w, "  measured   %d cycles, mean latency %.2f, P95 %.0f\n",
		res.Cycles, res.LatencyMean, res.LatencyP95)
	if model, err := edn.ExpectedPermutationTime(cfg, q); err == nil {
		fmt.Fprintf(w, "  Section 5.1 model  q/PA(1) + J = %.2f cycles (PA(1)=%.4f, J=%d)\n",
			model.Cycles(), model.PA1, model.J)
	}
	return nil
}
