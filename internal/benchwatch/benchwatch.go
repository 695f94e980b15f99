// Package benchwatch is the ns/op regression harness: it parses
// `go test -bench` output into the repo's BENCH_N.json trajectory
// schema, diffs runs against a committed snapshot, and enforces
// per-benchmark ns/op budgets with a two-level verdict — WARN inside
// the shared-runner noise band above a budget, FAIL beyond the hard
// factor (or when a budgeted benchmark disappears). edn bench (cmd/edn) is
// the CLI face; CI runs it as the bench-regression gate.
package benchwatch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line: the benchmark's name (with the
// trailing -GOMAXPROCS suffix stripped), its iteration count, and
// every reported metric — ns/op, B/op, allocs/op and any custom
// ReportMetric units — keyed by unit string.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// NsPerOp returns the benchmark's ns/op metric (0 when absent).
func (b Benchmark) NsPerOp() float64 { return b.Metrics["ns/op"] }

// Snapshot is one BENCH_N.json trajectory entry. Decoding tolerates
// the per-PR headline blocks (prN_headline) the committed snapshots
// carry; they are not round-tripped.
type Snapshot struct {
	Snapshot   string      `json:"snapshot"`
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	CPU        string      `json:"cpu"`
	Command    string      `json:"command"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gomaxprocsSuffix matches the -N the bench runner appends to every
// benchmark name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and returns the benchmark
// results in input order. Non-benchmark lines (package headers, PASS,
// ok) are skipped. When -count ran a benchmark several times, the
// fastest ns/op run wins — the repeat exists to beat scheduler noise,
// and minimum-of-runs is the standard noise filter for that.
func Parse(r io.Reader) ([]Benchmark, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Benchmark
	index := make(map[string]int)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name iterations value unit [value unit]...";
		// a bare "BenchmarkFoo" progress line has no fields to parse.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		b := Benchmark{
			Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		bad := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				bad = true
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if bad {
			continue
		}
		if at, dup := index[b.Name]; dup {
			if b.NsPerOp() < out[at].NsPerOp() {
				out[at] = b
			}
			continue
		}
		index[b.Name] = len(out)
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchwatch: no benchmark result lines found")
	}
	return out, nil
}

// LoadSnapshot reads one BENCH_N.json file.
func LoadSnapshot(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("benchwatch: %s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshot writes s as indented JSON. When headlineKey is
// non-empty (e.g. "pr3_headline"), headline is embedded under it —
// the free-form per-PR comment block the committed trajectory carries.
func WriteSnapshot(path string, s Snapshot, headlineKey string, headline any) error {
	doc := map[string]any{
		"snapshot":   s.Snapshot,
		"date":       s.Date,
		"go":         s.Go,
		"cpu":        s.CPU,
		"command":    s.Command,
		"benchmarks": s.Benchmarks,
	}
	if headlineKey != "" {
		doc[headlineKey] = headline
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Budgets is the committed per-benchmark ns/op ceiling file the
// regression gate enforces.
type Budgets struct {
	// Comment documents the derivation for the next reader.
	Comment string `json:"comment,omitempty"`
	// Source names the snapshot the budgets derive from.
	Source string `json:"source,omitempty"`
	// Headroom is the multiplier applied to the source ns/op.
	Headroom float64 `json:"headroom,omitempty"`
	// NsPerOp maps benchmark name to its ns/op budget.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// DeriveBudgets builds budgets from a run: every benchmark matching
// filter (nil = all) gets budget ns/op * headroom.
func DeriveBudgets(benchmarks []Benchmark, filter *regexp.Regexp, headroom float64) Budgets {
	if headroom <= 0 {
		headroom = 1
	}
	b := Budgets{Headroom: headroom, NsPerOp: make(map[string]float64)}
	for _, bm := range benchmarks {
		if filter != nil && !filter.MatchString(bm.Name) {
			continue
		}
		if ns := bm.NsPerOp(); ns > 0 {
			b.NsPerOp[bm.Name] = ns * headroom
		}
	}
	return b
}

// LoadBudgets reads a budget file.
func LoadBudgets(path string) (Budgets, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Budgets{}, err
	}
	var b Budgets
	if err := json.Unmarshal(raw, &b); err != nil {
		return Budgets{}, fmt.Errorf("benchwatch: %s: %w", path, err)
	}
	if len(b.NsPerOp) == 0 {
		return Budgets{}, fmt.Errorf("benchwatch: %s: no ns_per_op budgets", path)
	}
	return b, nil
}

// WriteBudgets writes b as indented JSON.
func (b Budgets) Write(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Check statuses, ordered by severity.
const (
	StatusOK      = "OK"      // at or under budget
	StatusWarn    = "WARN"    // over budget but within the hard factor: noise band
	StatusFail    = "FAIL"    // over hardFactor x budget: a real regression
	StatusMissing = "MISSING" // budgeted benchmark absent from the run
)

// CheckRow is one budgeted benchmark's verdict.
type CheckRow struct {
	Name    string  `json:"name"`
	Status  string  `json:"status"`
	NsPerOp float64 `json:"ns_per_op"` // measured (0 when missing)
	Budget  float64 `json:"budget_ns_per_op"`
	Ratio   float64 `json:"ratio"` // measured / budget
}

// CheckReport is the regression gate's output over every budgeted
// benchmark, sorted by name.
type CheckReport struct {
	Rows     []CheckRow `json:"rows"`
	Warnings int        `json:"warnings"`
	Failures int        `json:"failures"` // FAIL + MISSING rows
}

// Failed reports whether the gate should reject the run.
func (r CheckReport) Failed() bool { return r.Failures > 0 }

// Check compares a run against budgets. A benchmark at or under its
// budget is OK; over budget but within hardFactor x budget is WARN
// (shared-runner noise floor — reported, not fatal); beyond that, or
// missing from the run entirely, is a failure. hardFactor <= 1 selects
// the default 2.
func Check(benchmarks []Benchmark, budgets Budgets, hardFactor float64) CheckReport {
	if hardFactor <= 1 {
		hardFactor = 2
	}
	byName := make(map[string]Benchmark, len(benchmarks))
	for _, b := range benchmarks {
		byName[b.Name] = b
	}
	var rep CheckReport
	for name, budget := range budgets.NsPerOp {
		row := CheckRow{Name: name, Budget: budget}
		b, ok := byName[name]
		switch ns := b.NsPerOp(); {
		case !ok || ns <= 0:
			row.Status = StatusMissing
			rep.Failures++
		default:
			row.NsPerOp = ns
			row.Ratio = ns / budget
			switch {
			case ns <= budget:
				row.Status = StatusOK
			case ns <= hardFactor*budget:
				row.Status = StatusWarn
				rep.Warnings++
			default:
				row.Status = StatusFail
				rep.Failures++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Name < rep.Rows[j].Name })
	return rep
}

// DiffRow is one benchmark's ns/op movement between two runs.
type DiffRow struct {
	Name    string  `json:"name"`
	OldNs   float64 `json:"old_ns_per_op"`
	NewNs   float64 `json:"new_ns_per_op"`
	DeltaPc float64 `json:"delta_percent"` // (new-old)/old * 100
}

// Diff matches benchmarks by name between a baseline and a run and
// reports ns/op movement, sorted by descending regression. Benchmarks
// present on only one side are skipped — Check, not Diff, owns
// absence.
func Diff(baseline, current []Benchmark) []DiffRow {
	base := make(map[string]float64, len(baseline))
	for _, b := range baseline {
		if ns := b.NsPerOp(); ns > 0 {
			base[b.Name] = ns
		}
	}
	var rows []DiffRow
	for _, b := range current {
		old, ok := base[b.Name]
		ns := b.NsPerOp()
		if !ok || ns <= 0 {
			continue
		}
		rows = append(rows, DiffRow{
			Name:    b.Name,
			OldNs:   old,
			NewNs:   ns,
			DeltaPc: (ns - old) / old * 100,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].DeltaPc != rows[j].DeltaPc {
			return rows[i].DeltaPc > rows[j].DeltaPc
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
