package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"edn"
	"edn/internal/cliutil"
)

func cmdTrace(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{64, 16, 4, 2}, "backpressure", 4000, false)
	engine := fs.String("engine", "edn", "engine: core, edn, dilated, loop")
	load := fs.Float64("load", 0.9, "offered load (demand rate for -engine loop)")
	sample := fs.Int("sample", 16, "sample every ~Nth accepted injection")
	traceCap := fs.Int("trace-cap", 256, "trace ring capacity")
	bins := fs.Int("heat-bins", 32, "heat series time bins")
	heatmap := fs.Bool("heatmap", false, "print per-stage heat rows")
	dump := fs.Bool("dump", false, "print raw traces, one hop per line")
	explain := fs.Bool("explain", false, "annotate dumped trace hops with their wait/block/service split (implies -dump)")
	export := fs.String("export", "", "emit registry metrics instead of the summary: prom, jsonl")
	format := fs.String("format", "table", "cohort breakdown output: table, csv, json")
	rf := addRetryFlags(fs, 32, "attempts", 8)
	return func() error {
		cfg, err := jf.config()
		if err != nil {
			return err
		}
		if *jf.warmup < 0 || *traceCap < 0 || *bins < 0 {
			return fmt.Errorf("-warmup, -trace-cap and -heat-bins must not be negative")
		}
		// The arbiter factory, the run and the traffic all draw from one
		// seed, 0 selecting 1 as a JobSpec's sim.seed does.
		seed := max(*jf.seed, 1)
		po := &edn.ProbeOptions{SampleEvery: *sample, TraceCap: *traceCap, Bins: *bins}
		opts := edn.SimOptions{Cycles: *jf.cycles, Warmup: *jf.warmup, Seed: seed, Probe: po}
		if opts.Factory, err = cliutil.ArbiterFactory(*jf.arb, seed); err != nil {
			return err
		}

		var rep *edn.ProbeReport
		var network string
		switch *engine {
		case "core", "edn", "dilated":
			// core is the Section 3.2 harness's engine: the EDN's
			// depth-0 Drop corner whatever -depth and -policy say.
			q := edn.QueueOptions{Policy: edn.QueueDrop, Factory: opts.Factory}
			if *engine != "core" {
				q.Depth = *jf.depth
				if q.Policy, err = cliutil.ParsePolicy(*jf.policy); err != nil {
					return err
				}
			}
			var net edn.Net = edn.EDNNet{Config: cfg, Queue: q}
			if *engine == "dilated" {
				dcfg, err := edn.DilatedCounterpart(cfg)
				if err != nil {
					return err
				}
				net = edn.DilatedNet{Config: dcfg, Queue: q}
			}
			res, err := edn.MeasureLatency(net, edn.Uniform{Rate: *load, Rng: edn.NewRand(seed)}, opts)
			if err != nil {
				return err
			}
			rep, network = res.Observed, net.String()
		case "loop":
			qopts := edn.QueueOptions{Depth: *jf.depth, Factory: opts.Factory}
			if qopts.Policy, err = cliutil.ParsePolicy(*jf.policy); err != nil {
				return err
			}
			lo, err := rf.options()
			if err != nil {
				return err
			}
			results, err := edn.MeasureClosedLoop(edn.EDNNet{Config: cfg, Queue: qopts}, []float64{*load}, lo, opts, 1)
			if err != nil {
				return err
			}
			rep, network = results[0].Observed, cfg.String()
		default:
			return fmt.Errorf("unknown engine %q (want core, edn, dilated or loop)", *engine)
		}
		if rep == nil {
			return fmt.Errorf("no probe report collected")
		}

		if *export != "" {
			reg := edn.NewMetricsRegistry()
			reg.AddReport(rep, []edn.MetricLabel{
				{Key: "network", Value: network},
				{Key: "engine", Value: *engine},
				{Key: "load", Value: fmt.Sprintf("%g", *load)},
			})
			switch *export {
			case "prom":
				return reg.WritePrometheus(w)
			case "jsonl":
				return reg.WriteJSONLines(w)
			default:
				return fmt.Errorf("unknown export %q (want prom or jsonl)", *export)
			}
		}
		if *dump || *explain {
			return dumpTraces(w, rep, *explain)
		}

		switch *format {
		case "json":
			return cliutil.WriteJSON(w, traceReport{
				Network: network,
				Engine:  *engine,
				Load:    *load,
				Seed:    seed,
				Sampled: rep.Sampled,
				Traces:  rep.Traces,
				Cohort:  cohortRows(rep),
			})
		case "table", "csv":
		default:
			return fmt.Errorf("unknown format %q (want table, csv or json)", *format)
		}
		fmt.Fprintf(w, "%s engine=%s load=%g cycles=%d sample=1/%d\n", network, *engine, *load, *jf.cycles, *sample)
		if err := cliutil.WriteProbeReport(w, rep, *heatmap); err != nil {
			return err
		}
		rows := cohortRows(rep)
		if len(rows) == 0 {
			fmt.Fprintln(w, "cohort breakdown: too few completed traces")
			return nil
		}
		cells := make([][]any, len(rows))
		for i, r := range rows {
			cells[i] = []any{r.Stage, r.MedianVisits, r.MedianStalls, r.TailVisits, r.TailStalls}
		}
		fmt.Fprintln(w, "cohort breakdown (stall events per trace: block/park/timeout/retry):")
		if *format == "csv" {
			return cliutil.WriteCSV(w, cohortColumns, cells)
		}
		return cliutil.WriteTable(w, cohortColumns, cells)
	}
}

var cohortColumns = []cliutil.Column{
	{Name: "stage", Format: "%5d"},
	{Name: "median_visits", Head: "med-vis", Format: "%8.2f"},
	{Name: "median_stalls", Head: "med-stall", Format: "%9.2f"},
	{Name: "tail_visits", Head: "p99-vis", Format: "%8.2f"},
	{Name: "tail_stalls", Head: "p99-stall", Format: "%9.2f"},
}

// cohortRow compares the median-latency cohort against the P99 cohort
// at one stage: how often each cohort's traces touched the stage and
// how many stall events they accumulated there.
type cohortRow struct {
	Stage        int     `json:"stage"`
	MedianVisits float64 `json:"medianVisits"`
	MedianStalls float64 `json:"medianStalls"`
	TailVisits   float64 `json:"tailVisits"`
	TailStalls   float64 `json:"tailStalls"`
}

// cohortRows splits completed traces into the at-or-under-median
// cohort and the at-or-over-P99 cohort and reports each cohort's mean
// per-stage visit and stall-event counts — the hop-by-hop answer to
// "where does the tail spend its extra cycles".
func cohortRows(rep *edn.ProbeReport) []cohortRow {
	type done struct {
		idx int
		lat float64
	}
	var completed []done
	maxStage := 0
	for i := range rep.Traces {
		if lat, ok := rep.Traces[i].Latency(); ok {
			completed = append(completed, done{i, lat})
		}
		for _, h := range rep.Traces[i].Hops {
			if h.Stage > maxStage {
				maxStage = h.Stage
			}
		}
	}
	if len(completed) < 4 {
		return nil
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i].lat < completed[j].lat })
	p50 := completed[len(completed)/2].lat
	p99 := completed[(len(completed)-1)*99/100].lat

	visits := make([][2]float64, maxStage+1)
	stalls := make([][2]float64, maxStage+1)
	var n [2]int
	for _, d := range completed {
		var cohort int
		switch {
		case d.lat <= p50:
			cohort = 0
		case d.lat >= p99:
			cohort = 1
		default:
			continue
		}
		n[cohort]++
		for _, h := range rep.Traces[d.idx].Hops {
			visits[h.Stage][cohort]++
			switch h.Event {
			case edn.EvBlock, edn.EvPark, edn.EvTimeout, edn.EvRetry:
				stalls[h.Stage][cohort]++
			}
		}
	}
	rows := make([]cohortRow, 0, maxStage+1)
	for s := 0; s <= maxStage; s++ {
		r := cohortRow{Stage: s}
		if n[0] > 0 {
			r.MedianVisits = visits[s][0] / float64(n[0])
			r.MedianStalls = stalls[s][0] / float64(n[0])
		}
		if n[1] > 0 {
			r.TailVisits = visits[s][1] / float64(n[1])
			r.TailStalls = stalls[s][1] / float64(n[1])
		}
		rows = append(rows, r)
	}
	return rows
}

// dumpTraces prints every sampled trace, one hop per line. With
// explain, each hop that ends a stage visit (traverse, deliver, drop,
// strand) is annotated with the visit's wait/block/service split — the
// per-packet view of the anatomy ledgers (see edn.SplitTraceHops).
func dumpTraces(w io.Writer, rep *edn.ProbeReport, explain bool) error {
	for i := range rep.Traces {
		t := &rep.Traces[i]
		status := "open"
		if t.Done {
			status = "done"
		}
		if _, err := fmt.Fprintf(w, "trace %d input=%d dest=%d inject=%d %s\n", t.ID, t.Input, t.Dest, t.Inject, status); err != nil {
			return err
		}
		var splits []edn.TraceSplit
		if explain {
			splits = edn.SplitTraceHops(t.Hops)
		}
		si := 0
		for _, h := range t.Hops {
			suffix := ""
			if si < len(splits) {
				switch h.Event {
				case edn.EvTraverse, edn.EvDeliver, edn.EvDrop, edn.EvStrand:
					s := splits[si]
					si++
					suffix = fmt.Sprintf("   wait=%-4d block=%-4d service=%d", s.Wait, s.Block, s.Service)
				}
			}
			if _, err := fmt.Fprintf(w, "  cycle=%-8d stage=%-3d %-8s%s\n", h.Cycle, h.Stage, h.Event, suffix); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceReport is the machine-readable summary. Seed is the seed every
// stream of the run drew from, max(-seed, 1).
type traceReport struct {
	Network string            `json:"network"`
	Engine  string            `json:"engine"`
	Load    float64           `json:"load"`
	Seed    uint64            `json:"seed"`
	Sampled int64             `json:"sampled"`
	Traces  []edn.PacketTrace `json:"traces"`
	Cohort  []cohortRow       `json:"cohort,omitempty"`
}
