package main

import (
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

func cmdFaults(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{4, 4, 2, 3}, "drop", 2000, true)
	fractionsFlag := fs.String("fractions", "0,0.02,0.05,0.1,0.2,0.3,0.5", "comma-separated fault fractions to sweep")
	mode := fs.String("mode", "wires", "failing population: wires, switches, mixed")
	load := fs.Float64("load", 1, "offered load per input during measurement")
	expected := fs.Bool("expected", false, "also evaluate the analytic degradation recursion per fault sample")
	dilatedCmp := cliutil.DilatedFlag(fs, "measured sub-wire faults at each fraction from the same traffic replay")
	format := fs.String("format", "table", "output: table, csv, json")
	return func() error {
		if *jf.spec != "" {
			return replay(w, *jf.spec)
		}
		cfg, err := jf.config()
		if err != nil {
			return err
		}
		fractions, err := cliutil.ParseFloatList(*fractionsFlag, 0, 1, "fraction")
		if err != nil {
			return err
		}
		faultMode, err := edn.ParseFaultMode(*mode)
		if err != nil {
			return err
		}
		if *load <= 0 || *load > 1 {
			return fmt.Errorf("load %g out of (0,1]", *load)
		}
		spec := jf.job(edn.JobAvailability)
		spec.Avail = &edn.AvailabilitySpec{Fractions: fractions, Mode: *mode, Load: *load, WithExpected: *expected}
		// The dilated twin fails its sub-wires at the EDN's fractions, so
		// the two networks lose the same share of their path redundancy.
		dcfg, err := counterpart(*dilatedCmp, cfg)
		if err != nil {
			return err
		}
		results, err := jf.run(w, withDilated(spec, dcfg)...)
		if results == nil {
			return err
		}
		points := results[0].Availability
		var dpoints []edn.AvailabilityResult
		if dcfg != nil {
			dpoints = results[1].Availability
		}

		cols := []cliutil.Column{
			{Name: "fraction", Format: "%9.3f"},
			{Name: "throughput", Head: "thr/cycle", Format: "%10.2f"},
			{Name: "throughput_per_input", Head: "thr/input", Format: "%10.3f"},
			{Name: "accepted_fraction", CSVOnly: true},
			{Name: "reachable_fraction", Head: "reachable", Format: "%10.3f"},
			{Name: "live_input_fraction", CSVOnly: true},
			{Name: "dead_switches", Head: "deadsw", Format: "%7.1f"},
			{Name: "dead_wires", Head: "deadwires", Format: "%10.1f"},
			{Name: "latency_p50", CSVOnly: true},
			{Name: "latency_p95", CSVOnly: true},
			{Name: "latency_p99", Head: "p99", Format: "%8.0f"},
			{Name: "latency_mean", CSVOnly: true},
			{Name: "latency_max", CSVOnly: true},
			{Name: "expected_throughput", Head: "model", Format: "%8.2f", CSVOnly: !*expected},
			{Name: "dilated_throughput_per_input", Head: "dilated", Format: "%8.3f", CSVOnly: dcfg == nil},
			{Name: "injected", CSVOnly: true},
			{Name: "refused", CSVOnly: true},
			{Name: "delivered", CSVOnly: true},
			{Name: "dropped", CSVOnly: true},
		}
		withDilatedModel := dpoints != nil && *expected
		if withDilatedModel {
			cols = append(cols, cliutil.Column{Name: "dilated_expected_throughput", CSVOnly: true})
		}
		rows := make([][]any, len(points))
		for i, r := range points {
			var dilatedThr float64
			if dpoints != nil {
				dilatedThr = dpoints[i].ThroughputPerInput
			}
			rows[i] = []any{
				r.FaultFraction, r.Throughput, r.ThroughputPerInput, r.AcceptedFraction,
				r.ReachableFraction, r.LiveInputFraction, r.DeadSwitches, r.DeadWires,
				r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMean, r.LatencyMax,
				r.ExpectedThroughput, dilatedThr, r.Injected, r.Refused, r.Delivered, r.Dropped,
			}
			if withDilatedModel {
				rows[i] = append(rows[i], dpoints[i].ExpectedThroughput)
			}
		}
		return render(w, *format, cols, rows, results, func() error {
			tableHead(w, cfg, dcfg, "%v — %d inputs, %d outputs, %d paths/pair, mode=%s, load=%g, depth=%d, policy=%s\n",
				cfg, cfg.Inputs(), cfg.Outputs(), cfg.PathCount(), faultMode, *load, *jf.depth, *jf.policy)
			return cliutil.WriteTable(w, cols, rows)
		})
	}
}
