// Command edn-experiments reproduces the paper's complete evaluation in
// one run: Figures 7, 8 and 11 (ASCII + CSV), the Equation 2/3 cost
// table, and the Section 5.1 MasPar case study, written into an output
// directory next to a summary index.
//
//	edn-experiments -out results/
//	edn-experiments -out results/ -simulate   # include Monte-Carlo runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"edn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "edn-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("edn-experiments", flag.ContinueOnError)
	out := fs.String("out", "results", "output directory")
	maxInputs := fs.Int("max-inputs", edn.DefaultMaxInputs, "largest network size to sweep")
	simulate := fs.Bool("simulate", false, "include Monte-Carlo measurements (slower)")
	seed := fs.Uint64("seed", 1, "RNG seed for -simulate")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
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
