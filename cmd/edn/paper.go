package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"edn"
	"edn/internal/cliutil"
	"edn/internal/design"
	"edn/internal/netlist"
	"edn/internal/plot"
)

func cmdDescribe(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	a, b, c, l := cliutil.GeometryFlags(fs, 16, 4, 4, 2)
	fanout := fs.Int("fanout", 8, "print per-switch fan-out when a stage has at most this many switches")
	dump := fs.Bool("netlist", false, "dump every physical wire")
	return func() error {
		cfg, err := edn.New(*a, *b, *c, *l)
		if err != nil {
			return err
		}
		desc, err := netlist.Describe(cfg, *fanout)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(w, desc); err != nil {
			return err
		}
		if *dump {
			nl, err := netlist.Build(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "netlist (%d wires):\n", nl.WireCount())
			for _, wire := range nl.Wires {
				fmt.Fprintf(w, "  %v -> %v\n", wire.From, wire.To)
			}
		}
		return nil
	}
}

func cmdRoute(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	a, b, c, l := cliutil.GeometryFlags(fs, 64, 16, 4, 2)
	src := fs.Int("src", 0, "source terminal")
	dst := fs.Int("dst", 0, "destination terminal")
	choicesArg := fs.String("choices", "", "comma-separated per-stage wire choices in [0,c) (default: all zero)")
	order := fs.String("order", "standard", "digit retirement order: standard or reversed (Corollary 2)")
	return func() error {
		cfg, err := edn.New(*a, *b, *c, *l)
		if err != nil {
			return err
		}
		var choices []int
		if *choicesArg != "" {
			for _, part := range strings.Split(*choicesArg, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("bad wire choice %q: %w", part, err)
				}
				choices = append(choices, v)
			}
		}

		tag, err := edn.EncodeTag(cfg, *dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v: %d inputs, %d outputs, %d paths per source/destination pair\n",
			cfg, cfg.Inputs(), cfg.Outputs(), cfg.PathCount())
		fmt.Fprintf(w, "destination tag %v\n", tag)

		switch *order {
		case "standard":
			tr, err := edn.TraceRoute(cfg, *src, *dst, choices)
			if err != nil {
				return err
			}
			fmt.Fprint(w, tr.String())
		case "reversed":
			ro := edn.ReversedOrder(cfg)
			f, err := ro.F(*dst)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "reversed retirement (%v): network delivers to F(%d) = %d;\n", ro, *dst, f)
			fmt.Fprintf(w, "the Figure 6 compensating output permutation maps it back to %d\n", *dst)
			tr, err := edn.TraceRoute(cfg, *src, f, choices)
			if err != nil {
				return err
			}
			fmt.Fprint(w, tr.String())
		default:
			return fmt.Errorf("unknown order %q (want standard or reversed)", *order)
		}
		return nil
	}
}

func cmdCost(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	maxInputs := fs.Int("max-inputs", 1<<16, "largest network size to include")
	return func() error {
		table, err := edn.CostTable(*maxInputs)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(w, table)
		return err
	}
}

func cmdExplore(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	ports := fs.Int("ports", 1024, "required number of network ports (power of two)")
	maxSwitch := fs.Int("max-switch", 64, "widest buildable switch (a = b*c)")
	budget := fs.Int64("budget", 0, "crosspoint budget; 0 disables the budget query")
	floor := fs.Float64("floor", 0, "PA(1) floor; 0 disables the floor query")
	all := fs.Bool("all", false, "list every candidate, not just the Pareto front")
	return func() error {
		points, err := design.Enumerate(*ports, *maxSwitch)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d square EDN candidates with %d ports and switches up to %d wide\n",
			len(points), *ports, *maxSwitch)
		fmt.Fprintf(w, "crossbar reference: PA(1) = %.4f at %d crosspoints\n\n",
			edn.CrossbarPA(*ports, 1), int64(*ports)*int64(*ports))

		rows := func(ps []design.Point) [][]string {
			out := make([][]string, 0, len(ps))
			for _, p := range ps {
				out = append(out, []string{
					p.Config.String(),
					fmt.Sprintf("%.4f", p.PA1),
					fmt.Sprint(p.Crosspoints),
					fmt.Sprint(p.Wires),
					fmt.Sprint(p.Config.PathCount()),
				})
			}
			return out
		}
		headers := []string{"network", "PA(1)", "crosspoints", "wires", "paths"}
		if *all {
			fmt.Fprintln(w, "all candidates (by PA):")
			fmt.Fprint(w, plot.Table(headers, rows(points)))
		}
		front := design.ParetoFront(points)
		fmt.Fprintln(w, "cost/performance Pareto front:")
		fmt.Fprint(w, plot.Table(headers, rows(front)))

		if *budget > 0 {
			if p, ok := design.BestUnderBudget(points, *budget); ok {
				fmt.Fprintf(w, "\nbest within %d crosspoints: %v\n", *budget, p)
			} else {
				fmt.Fprintf(w, "\nno design fits within %d crosspoints\n", *budget)
			}
		}
		if *floor > 0 {
			if p, ok := design.CheapestAtFloor(points, *floor); ok {
				fmt.Fprintf(w, "cheapest with PA(1) >= %.3f: %v\n", *floor, p)
			} else {
				fmt.Fprintf(w, "no design reaches PA(1) >= %.3f\n", *floor)
			}
		}
		return nil
	}
}

func cmdFigures(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	fig := fs.String("fig", "all", "figure to regenerate: 7, 8, 11 or all")
	maxInputs := fs.Int("max-inputs", edn.DefaultMaxInputs, "largest network size to sweep")
	csv := fs.Bool("csv", false, "emit CSV instead of an ASCII chart")
	return func() error {
		builders := map[string]func(int) (edn.Chart, error){
			"7":  edn.Figure7,
			"8":  edn.Figure8,
			"11": edn.Figure11,
		}
		order := []string{"7", "8", "11"}

		selected := order
		if *fig != "all" {
			if _, ok := builders[*fig]; !ok {
				return fmt.Errorf("unknown figure %q (want 7, 8, 11 or all)", *fig)
			}
			selected = []string{*fig}
		}
		for _, name := range selected {
			chart, err := builders[name](*maxInputs)
			if err != nil {
				return fmt.Errorf("figure %s: %w", name, err)
			}
			if *csv {
				if err := chart.WriteCSV(w); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintln(w, chart.Render()); err != nil {
				return err
			}
		}
		return nil
	}
}

func cmdExperiments(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	out := fs.String("out", "results", "output directory")
	maxInputs := fs.Int("max-inputs", edn.DefaultMaxInputs, "largest network size to sweep")
	simulate := fs.Bool("simulate", false, "include Monte-Carlo measurements (slower)")
	seed := fs.Uint64("seed", 1, "RNG seed for -simulate")
	return func() error {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}

		var index strings.Builder
		index.WriteString("# Reproduction run index\n\n")

		figures := []struct {
			id    string
			build func(int) (edn.Chart, error)
		}{
			{"figure7", edn.Figure7},
			{"figure8", edn.Figure8},
			{"figure11", edn.Figure11},
		}
		for _, f := range figures {
			chart, err := f.build(*maxInputs)
			if err != nil {
				return fmt.Errorf("%s: %w", f.id, err)
			}
			txt := filepath.Join(*out, f.id+".txt")
			if err := os.WriteFile(txt, []byte(chart.Render()), 0o644); err != nil {
				return err
			}
			csvPath := filepath.Join(*out, f.id+".csv")
			var csv strings.Builder
			if err := chart.WriteCSV(&csv); err != nil {
				return err
			}
			if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(&index, "- %s: %s, %s\n", f.id, txt, csvPath)
			fmt.Fprintf(w, "wrote %s and %s\n", txt, csvPath)
		}

		costs, err := edn.CostTable(1 << 16)
		if err != nil {
			return err
		}
		costPath := filepath.Join(*out, "costs.txt")
		if err := os.WriteFile(costPath, []byte(costs), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&index, "- cost table (Equations 2/3): %s\n", costPath)
		fmt.Fprintf(w, "wrote %s\n", costPath)

		trials := 0
		if *simulate {
			trials = 3
		}
		report, err := edn.MasParReport(*simulate, trials, *seed)
		if err != nil {
			return err
		}
		masparPath := filepath.Join(*out, "maspar.txt")
		if err := os.WriteFile(masparPath, []byte(report), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&index, "- Section 5.1 case study: %s\n", masparPath)
		fmt.Fprintf(w, "wrote %s\n", masparPath)

		if *simulate {
			var sims strings.Builder
			sims.WriteString("Monte-Carlo cross-checks (seeded, deterministic)\n\n")
			for _, dims := range [][4]int{{16, 4, 4, 2}, {64, 16, 4, 2}, {8, 8, 1, 3}} {
				cfg, err := edn.New(dims[0], dims[1], dims[2], dims[3])
				if err != nil {
					return err
				}
				res, err := edn.MeasureUniformPA(cfg, 1, edn.SimOptions{Cycles: 600, Seed: *seed})
				if err != nil {
					return err
				}
				fmt.Fprintf(&sims, "%v: measured PA %.4f (+-%.4f) vs Equation 4 %.4f\n",
					cfg, res.PA, res.PACI, edn.PA(cfg, 1))
			}
			simPath := filepath.Join(*out, "simulation.txt")
			if err := os.WriteFile(simPath, []byte(sims.String()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(&index, "- simulation cross-checks: %s\n", simPath)
			fmt.Fprintf(w, "wrote %s\n", simPath)
		}

		indexPath := filepath.Join(*out, "INDEX.md")
		if err := os.WriteFile(indexPath, []byte(index.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", indexPath)
		return nil
	}
}

func cmdMaspar(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	simulate := fs.Bool("simulate", false, "also measure with the cycle-level simulator")
	trials := fs.Int("trials", 3, "random permutations to measure with -simulate")
	seed := fs.Uint64("seed", 1, "RNG seed for -simulate")
	return func() error {
		report, err := edn.MasParReport(*simulate, *trials, *seed)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(w, report)
		return err
	}
}
