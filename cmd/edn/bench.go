package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"time"

	"edn/internal/benchwatch"
	"edn/internal/cliutil"
)

// benchConfig holds the bench subcommand's flags.
type benchConfig struct {
	input        string
	bench        string
	benchtime    string
	count        int
	pkg          string
	baseline     string
	budgets      string
	check        bool
	hardFactor   float64
	record       string
	snapshot     string
	comment      string
	writeBudgets string
	headroom     float64
	budgetBench  string
	format       string
}

func cmdBench(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error {
	var c benchConfig
	fs.StringVar(&c.input, "input", "", "parse this `go test -bench` output file (- = stdin) instead of running go test")
	fs.StringVar(&c.bench, "bench", ".", "benchmark regexp passed to go test -bench (when running)")
	fs.StringVar(&c.benchtime, "benchtime", "", "go test -benchtime (when running)")
	fs.IntVar(&c.count, "count", 1, "go test -count (when running); repeats keep the fastest ns/op")
	fs.StringVar(&c.pkg, "pkg", "./...", "package pattern for go test (when running)")
	fs.StringVar(&c.baseline, "baseline", "", "diff the run against this BENCH_N.json snapshot")
	fs.StringVar(&c.budgets, "budgets", "BENCH_BUDGETS.json", "per-benchmark ns/op budget file for -check")
	fs.BoolVar(&c.check, "check", false, "enforce -budgets: exit 1 on FAIL/MISSING, warn within the noise band")
	fs.Float64Var(&c.hardFactor, "hard-factor", 2, "FAIL threshold as a multiple of each budget; under it, over-budget is WARN")
	fs.StringVar(&c.record, "record", "", "write the run as this trajectory snapshot file (e.g. BENCH_3.json)")
	fs.StringVar(&c.snapshot, "snapshot", "", "snapshot name for -record (default: file basename without .json)")
	fs.StringVar(&c.comment, "comment", "", "headline comment embedded in the -record snapshot")
	fs.StringVar(&c.writeBudgets, "write-budgets", "", "derive a budget file from the run and write it here")
	fs.Float64Var(&c.headroom, "headroom", 1.15, "budget = measured ns/op x headroom for -write-budgets")
	fs.StringVar(&c.budgetBench, "budget-bench", "", "regexp limiting which benchmarks -write-budgets covers (empty = all)")
	fs.StringVar(&c.format, "format", "table", "report format: table, csv or json")
	return func() error {
		switch c.format {
		case "table", "csv", "json":
		default:
			return fmt.Errorf("unknown format %q (want table, csv or json)", c.format)
		}

		benchmarks, command, err := collect(c, stdin, stdout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "parsed %d benchmarks\n", len(benchmarks))

		if c.record != "" {
			if err := record(c, benchmarks, command); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "recorded %s\n", c.record)
		}
		if c.writeBudgets != "" {
			if err := writeBudgets(c, benchmarks); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote budgets %s\n", c.writeBudgets)
		}
		if c.baseline != "" {
			if err := diff(c, benchmarks, stdout); err != nil {
				return err
			}
		}
		if c.check {
			return check(c, benchmarks, stdout)
		}
		return nil
	}
}

// collect obtains the benchmark results: from -input, or by running
// go test itself. It returns the results plus the command string the
// snapshot records.
func collect(c benchConfig, stdin io.Reader, stdout io.Writer) ([]benchwatch.Benchmark, string, error) {
	if c.input == "-" {
		bs, err := benchwatch.Parse(stdin)
		return bs, "go test -bench (stdin)", err
	}
	if c.input != "" {
		f, err := os.Open(c.input)
		if err != nil {
			return nil, "", err
		}
		defer f.Close() //nolint:errcheck
		bs, err := benchwatch.Parse(f)
		return bs, "go test -bench (from " + c.input + ")", err
	}
	args := []string{"test", "-run", "^$", "-bench", c.bench, "-benchmem"}
	if c.benchtime != "" {
		args = append(args, "-benchtime", c.benchtime)
	}
	if c.count > 1 {
		args = append(args, "-count", fmt.Sprint(c.count))
	}
	args = append(args, c.pkg)
	command := "go " + strings.Join(args, " ")
	fmt.Fprintf(stdout, "running %s\n", command)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", command, err)
	}
	bs, err := benchwatch.Parse(&out)
	return bs, command, err
}

func record(c benchConfig, benchmarks []benchwatch.Benchmark, command string) error {
	name := c.snapshot
	if name == "" {
		name = strings.TrimSuffix(strings.TrimSuffix(c.record, ".json"), "/")
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
	}
	snap := benchwatch.Snapshot{
		Snapshot:   name,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Command:    command,
		Benchmarks: benchmarks,
	}
	var headlineKey string
	var headline any
	if c.comment != "" {
		// BENCH_3 -> pr3_headline, matching the committed trajectory.
		n := strings.TrimPrefix(name, "BENCH_")
		headlineKey = "pr" + n + "_headline"
		headline = map[string]any{"comment": c.comment}
	}
	return benchwatch.WriteSnapshot(c.record, snap, headlineKey, headline)
}

func writeBudgets(c benchConfig, benchmarks []benchwatch.Benchmark) error {
	var filter *regexp.Regexp
	if c.budgetBench != "" {
		var err error
		if filter, err = regexp.Compile(c.budgetBench); err != nil {
			return fmt.Errorf("bad -budget-bench: %w", err)
		}
	}
	b := benchwatch.DeriveBudgets(benchmarks, filter, c.headroom)
	if len(b.NsPerOp) == 0 {
		return fmt.Errorf("-budget-bench %q matched no benchmarks", c.budgetBench)
	}
	b.Comment = fmt.Sprintf("ns/op budgets = measured x %.2f headroom; edn bench -check warns over budget, fails over %.1fx budget", c.headroom, c.hardFactor)
	if c.record != "" {
		b.Source = c.record
	}
	return b.Write(c.writeBudgets)
}

var diffCols = []cliutil.Column{
	{Name: "benchmark", Format: "%-52s"},
	{Name: "old_ns_per_op", Head: "old ns/op", Format: "%12.1f"},
	{Name: "new_ns_per_op", Head: "new ns/op", Format: "%12.1f"},
	{Name: "delta_percent", Head: "delta%", Format: "%+8.1f"},
}

func diff(c benchConfig, benchmarks []benchwatch.Benchmark, stdout io.Writer) error {
	base, err := benchwatch.LoadSnapshot(c.baseline)
	if err != nil {
		return err
	}
	rows := benchwatch.Diff(base.Benchmarks, benchmarks)
	fmt.Fprintf(stdout, "diff vs %s (%s, %s): %d benchmarks matched\n",
		base.Snapshot, base.Date, base.Go, len(rows))
	if c.format == "json" {
		return cliutil.WriteJSON(stdout, rows)
	}
	cells := make([][]any, len(rows))
	for i, r := range rows {
		cells[i] = []any{r.Name, r.OldNs, r.NewNs, r.DeltaPc}
	}
	if c.format == "csv" {
		return cliutil.WriteCSV(stdout, diffCols, cells)
	}
	return cliutil.WriteTable(stdout, diffCols, cells)
}

var checkCols = []cliutil.Column{
	{Name: "benchmark", Format: "%-52s"},
	{Name: "status", Format: "%8s"},
	{Name: "ns_per_op", Head: "ns/op", Format: "%12.1f"},
	{Name: "budget_ns_per_op", Head: "budget", Format: "%12.1f"},
	{Name: "ratio", Format: "%7.2f"},
}

func check(c benchConfig, benchmarks []benchwatch.Benchmark, stdout io.Writer) error {
	budgets, err := benchwatch.LoadBudgets(c.budgets)
	if err != nil {
		return err
	}
	rep := benchwatch.Check(benchmarks, budgets, c.hardFactor)
	switch c.format {
	case "json":
		if err := cliutil.WriteJSON(stdout, rep); err != nil {
			return err
		}
	default:
		cells := make([][]any, len(rep.Rows))
		for i, r := range rep.Rows {
			cells[i] = []any{r.Name, r.Status, r.NsPerOp, r.Budget, r.Ratio}
		}
		if c.format == "csv" {
			err = cliutil.WriteCSV(stdout, checkCols, cells)
		} else {
			err = cliutil.WriteTable(stdout, checkCols, cells)
		}
		if err != nil {
			return err
		}
	}
	switch {
	case rep.Failed():
		return fmt.Errorf("bench check failed: %d failing, %d warning of %d budgeted (budgets %s, hard factor %.1fx)",
			rep.Failures, rep.Warnings, len(rep.Rows), c.budgets, c.hardFactor)
	case rep.Warnings > 0:
		fmt.Fprintf(stdout, "bench check: OK with %d warning(s) in the noise band (over budget, under %.1fx)\n",
			rep.Warnings, c.hardFactor)
	default:
		fmt.Fprintf(stdout, "bench check: all %d budgeted benchmarks within budget\n", len(rep.Rows))
	}
	return nil
}

// cpuModel best-effort reads the CPU model name for the snapshot
// header, matching the committed trajectory's format.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
