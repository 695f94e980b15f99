package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

func cmdExplain(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	jf := addJobFlags(fs, [4]int{16, 4, 4, 2}, "backpressure", 4000, true)
	engine := fs.String("engine", "edn", "engine: edn, dilated")
	mode := fs.String("mode", "latency", "workload: latency (open-loop packets), loop (closed-loop requests)")
	load := fs.Float64("load", 0.9, "offered load (demand rate for -mode loop)")
	tf := addTrafficFlags(fs, 0.2, true)
	rf := addRetryFlags(fs, 32, "attempts", 8)
	topK := fs.Int("top-k", 8, "entries kept in the blame and congestion-tree lists")
	format := fs.String("format", "table", "output: table, json")
	return func() error {
		var spec edn.JobSpec
		if *jf.spec != "" {
			// A replayed spec renders its anatomy too: an explain section
			// is injected when it has none.
			if err := cliutil.LoadSpec(*jf.spec, &spec); err != nil {
				return err
			}
			if spec.Explain == nil {
				spec.Explain = &edn.ExplainSpec{TopK: *topK}
			}
		} else {
			spec = jf.job("")
			spec.Engine, spec.Explain = *engine, &edn.ExplainSpec{TopK: *topK}
			switch *mode {
			case "latency":
				spec.Mode, spec.Load = edn.JobLatency, *load
			case "loop":
				spec.Mode, spec.Rates, spec.Loop = edn.JobClosedLoop, []float64{*load}, rf.spec()
			default:
				return fmt.Errorf("unknown mode %q (want latency or loop)", *mode)
			}
			var err error
			if spec.Traffic, err = tf.spec(); err != nil {
				return err
			}
		}
		if *jf.dump {
			return cliutil.WriteJSON(w, spec)
		}

		var rep *edn.AnatomyReport
		res, err := edn.RunJob(context.Background(), spec, edn.RunOptions{
			OnExplain: func(r *edn.AnatomyReport) { rep = r },
		})
		if err != nil {
			return err
		}
		if rep == nil {
			return fmt.Errorf("no anatomy report collected")
		}
		switch *format {
		case "json":
			return cliutil.WriteJSON(w, explainReport{Spec: spec, Result: res, Explain: rep})
		case "table":
			return renderAnatomy(w, rep)
		}
		return fmt.Errorf("unknown format %q (want table or json)", *format)
	}
}

// explainReport is the machine-readable output: the job, its untouched
// result, and the anatomy riding beside it.
type explainReport struct {
	Spec    edn.JobSpec        `json:"spec"`
	Result  *edn.JobResult     `json:"result"`
	Explain *edn.AnatomyReport `json:"explain"`
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func renderAnatomy(w io.Writer, rep *edn.AnatomyReport) error {
	fmt.Fprintf(w, "latency anatomy: %d stages, %d inputs -> %d outputs, %d observed cycles\n",
		rep.Stages, rep.Inputs, rep.Outputs, rep.Cycles)
	for _, cl := range []struct {
		name string
		t    edn.AnatomyClassTotals
	}{{"delivered", rep.Delivered}, {"dropped", rep.Dropped}, {"stranded", rep.Stranded}} {
		total := cl.t.Wait + cl.t.Block + cl.t.Service
		if cl.t.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-9s %8d packets, %10d cycles = wait %5.1f%% + block %5.1f%% + service %5.1f%%\n",
			cl.name, cl.t.Count, total,
			pct(cl.t.Wait, total), pct(cl.t.Block, total), pct(cl.t.Service, total))
	}
	if rep.FaultParked > 0 {
		fmt.Fprintf(w, "fault-parked ring-cycles: %d (packets stalled on failed wires)\n", rep.FaultParked)
	}

	if len(rep.PerStage) > 0 {
		fmt.Fprintln(w, "\nper-stage ledger (cycles attributed to packets queued at the stage):")
		rows := make([][]any, len(rep.PerStage))
		for i, st := range rep.PerStage {
			rows[i] = []any{st.Stage, st.Wait, st.Block, st.Service, st.Blame,
				st.DwellSummary.P50, st.DwellSummary.P95, st.DwellSummary.Max}
		}
		if err := cliutil.WriteTable(w, stageColumns, rows); err != nil {
			return err
		}
	}

	if len(rep.Blame) > 0 {
		fmt.Fprintln(w, "\nswitch blame (blocked ring-cycles this switch's full queues caused upstream):")
		var total int64
		for _, st := range rep.PerStage {
			total += st.Blame
		}
		rows := make([][]any, len(rep.Blame))
		for i, sb := range rep.Blame {
			rows[i] = []any{sb.Stage, sb.Switch, sb.Cycles, pct(sb.Cycles, total)}
		}
		if err := cliutil.WriteTable(w, blameColumns, rows); err != nil {
			return err
		}
	}

	if len(rep.Trees) > 0 {
		fmt.Fprintln(w, "\ncongestion trees (by total blocked ring-cycles):")
		for _, t := range rep.Trees {
			root := fmt.Sprintf("stage %d switch %d", t.RootStage, t.RootSwitch)
			if t.RootTerminal >= 0 {
				root = fmt.Sprintf("output %d (stage %d switch %d)", t.RootTerminal, t.RootStage, t.RootSwitch)
			}
			fmt.Fprintf(w, "  root %-32s depth %2d  spread %3d  cycles %d..%d  blocked %d\n",
				root, t.Depth, t.Spread, t.FirstCycle, t.LastCycle, t.BlockedCycles)
		}
	}

	if r := rep.Requests; r != nil && r.Completed > 0 {
		total := r.Total()
		fmt.Fprintf(w, "\nrequest time split (%d completed requests, %d total cycles):\n", r.Completed, total)
		for _, seg := range []struct {
			name string
			v    int64
		}{
			{"client-queue", r.ClientQueue}, {"retry-wait", r.RetryWait},
			{"forward-fabric", r.Forward}, {"service", r.Service}, {"reply-fabric", r.Reply},
		} {
			fmt.Fprintf(w, "  %-14s %10d cycles  %5.1f%%  (%.2f/request)\n",
				seg.name, seg.v, pct(seg.v, total), float64(seg.v)/float64(r.Completed))
		}
		if r.GiveUps > 0 {
			fmt.Fprintf(w, "  gave up: %d requests after %d cycles\n", r.GiveUps, r.GiveUpTime)
		}
	}
	return nil
}

var stageColumns = []cliutil.Column{
	{Name: "stage", Format: "%5d"},
	{Name: "wait", Format: "%10d"},
	{Name: "block", Format: "%10d"},
	{Name: "service", Format: "%10d"},
	{Name: "blame", Format: "%10d"},
	{Name: "dwell_p50", Head: "dwl-p50", Format: "%8.1f"},
	{Name: "dwell_p95", Head: "dwl-p95", Format: "%8.1f"},
	{Name: "dwell_max", Head: "dwl-max", Format: "%8.0f"},
}

var blameColumns = []cliutil.Column{
	{Name: "stage", Format: "%5d"},
	{Name: "switch", Format: "%6d"},
	{Name: "cycles", Format: "%10d"},
	{Name: "share", Head: "share%", Format: "%7.1f"},
}
