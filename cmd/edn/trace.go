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
	format := fs.String("format", "table", "output: table, csv (with the cohort breakdown), json (the JobResult)")
	rf := addRetryFlags(fs, 32, "attempts", 8)
	return func() error {
		if *jf.spec != "" {
			return replay(w, *jf.spec)
		}
		// A trace is a one-shard job: its one run carries the probe.
		// The arbiter factory and the point's streams all derive from
		// one seed, 0 selecting 1 as a JobSpec's sim.seed does.
		spec := jf.job(edn.JobLatency)
		spec.Load = *load
		spec.Sim.Seed, spec.Sim.Shards = max(*jf.seed, 1), 1
		spec.Probe = &edn.ProbeSpec{SampleEvery: *sample, TraceCap: *traceCap, Bins: *bins}
		switch *engine {
		case "edn":
		case "core":
			// core is the Section 3.2 harness's engine: the EDN's
			// depth-0 Drop corner whatever -depth and -policy say.
			spec.Queue.Depth, spec.Queue.Policy = 0, "drop"
		case "dilated":
			spec.Engine = edn.EngineDilated
		case "loop":
			spec.Mode, spec.Load, spec.Rates, spec.Loop = edn.JobClosedLoop, 0, []float64{*load}, rf.spec()
		default:
			return fmt.Errorf("unknown engine %q (want core, edn, dilated or loop)", *engine)
		}
		if spec.Mode == edn.JobLatency && *load == 0 {
			return fmt.Errorf("-load 0 is not a latency job's load (0 selects the default 1)")
		}
		results, err := jf.run(w, spec)
		if results == nil {
			return err
		}
		res := results[0]
		var rep *edn.ProbeReport
		var network string
		var cycles int
		if len(res.Points) > 0 {
			rep, network, cycles = res.Points[0].Observed, res.Points[0].Network(), res.Points[0].Cycles
		} else {
			rep, network, cycles = res.ClosedLoop[0].Observed, res.ClosedLoop[0].Network(), res.ClosedLoop[0].Cycles
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
			return cliutil.WriteJSON(w, res)
		case "table", "csv":
		default:
			return fmt.Errorf("unknown format %q (want table, csv or json)", *format)
		}
		fmt.Fprintf(w, "%s engine=%s load=%g cycles=%d sample=1/%d\n", network, *engine, *load, cycles, *sample)
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
	Stage        int
	MedianVisits float64
	MedianStalls float64
	TailVisits   float64
	TailStalls   float64
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
