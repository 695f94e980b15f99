// Package cliutil holds the flag-parsing and report-writing helpers the
// edn command's subcommands share: geometry flags, comma-separated
// float axes, policy/arbitration selection, the flight-recorder and
// profiling flags, and the aligned-table / CSV / JSON writers. Each
// subcommand keeps its own column list (a table is a statement about
// what matters for that sweep) but renders it through one
// implementation, so output conventions — header alignment, CSV field
// naming, JSON indentation — stay identical across subcommands.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/xrand"
)

// GeometryFlags registers the four EDN(a,b,c,l) flags with the given
// defaults and returns their destinations.
func GeometryFlags(fs *flag.FlagSet, a, b, c, l int) (pa, pb, pc, pl *int) {
	pa = fs.Int("a", a, "hyperbar inputs")
	pb = fs.Int("b", b, "hyperbar output buckets")
	pc = fs.Int("c", c, "bucket capacity")
	pl = fs.Int("l", l, "hyperbar stages")
	return pa, pb, pc, pl
}

// ParseFloatList parses a comma-separated list of floats, requiring
// every value in [lo, hi] and at least one value. noun names the axis
// in error messages ("load", "fraction").
func ParseFloatList(s string, lo, hi float64, noun string) ([]float64, error) {
	var vals []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", noun, part, err)
		}
		if !(v >= lo && v <= hi) { // NaN fails both comparisons
			return nil, fmt.Errorf("%s %g out of [%g,%g]", noun, v, lo, hi)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no %ss to sweep", noun)
	}
	return vals, nil
}

// ParsePolicy maps a -policy flag value onto the queueing discipline.
func ParsePolicy(name string) (queuesim.Policy, error) {
	switch name {
	case "backpressure":
		return queuesim.Backpressure, nil
	case "drop":
		return queuesim.Drop, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want backpressure or drop)", name)
	}
}

// ArbiterFactory maps an -arb flag value onto a switch-arbiter factory;
// nil selects the fused priority fast path. The random factory draws
// per-switch streams from one seed source under a mutex, so it is safe
// to call lazily from shard goroutines; with more than one shard the
// stream-to-switch assignment depends on scheduling, making random
// arbitration statistically but not bit-for-bit reproducible.
func ArbiterFactory(name string, seed uint64) (switchfab.ArbiterFactory, error) {
	switch name {
	case "priority":
		return nil, nil
	case "roundrobin":
		return func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }, nil
	case "random":
		var mu sync.Mutex
		rng := xrand.New(seed + 0x9e37)
		return func() switchfab.Arbiter {
			mu.Lock()
			s := rng.Split()
			mu.Unlock()
			return switchfab.RandomArbiter{Perm: s.Perm}
		}, nil
	default:
		return nil, fmt.Errorf("unknown arbitration %q (want priority, roundrobin or random)", name)
	}
}

// Column describes one value column of a sweep report. Name is the CSV
// header field; Head overrides it for the aligned table (tables
// abbreviate, CSV spells out). Format is the table cell verb — its
// leading width also pads the header — and CSVOnly columns carry data
// too detailed for the table.
type Column struct {
	Name    string
	Head    string
	Format  string
	CSVOnly bool
}

func (c Column) head() string {
	if c.Head != "" {
		return c.Head
	}
	return c.Name
}

// width extracts the leading field width of the column's format verb
// ("%10.2f" -> 10) for header alignment.
func (c Column) width() int {
	w := 0
	for _, r := range strings.TrimPrefix(c.Format, "%") {
		if r < '0' || r > '9' {
			break
		}
		w = w*10 + int(r-'0')
	}
	return w
}

// WriteTable renders the non-CSVOnly columns as an aligned table: one
// header line, one line per row. Rows carry one cell per column of
// cols, CSVOnly ones included (they are skipped here and used by
// WriteCSV), so a command builds each row exactly once.
func WriteTable(w io.Writer, cols []Column, rows [][]any) error {
	var sb strings.Builder
	for _, c := range cols {
		if c.CSVOnly {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%*s", c.width(), c.head())
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("cliutil: row has %d cells for %d columns", len(row), len(cols))
		}
		sb.Reset()
		for i, c := range cols {
			if c.CSVOnly {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, c.Format, row[i])
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders every column: a header of the Names, then %v-encoded
// cells (floats print as %g, integers in decimal).
func WriteCSV(w io.Writer, cols []Column, rows [][]any) error {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	cells := make([]string, len(cols))
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("cliutil: row has %d cells for %d columns", len(row), len(cols))
		}
		for i, v := range row {
			cells[i] = fmt.Sprintf("%v", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders v with the cmd-wide two-space indentation.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ProbeFlagSet holds the shared flight-recorder flags: -trace selects
// the packet sampling stride, -heatmap turns on per-stage heat series,
// and the two shape knobs bound the recorder's memory.
type ProbeFlagSet struct {
	Sample  *int
	Cap     *int
	Heatmap *bool
	Bins    *int
}

// ProbeFlags registers the flight-recorder flags on fs.
func ProbeFlags(fs *flag.FlagSet) *ProbeFlagSet {
	return &ProbeFlagSet{
		Sample:  fs.Int("trace", 0, "sample every ~Nth accepted packet into the flight recorder (0 = off)"),
		Cap:     fs.Int("trace-cap", 256, "flight-recorder trace ring capacity"),
		Heatmap: fs.Bool("heatmap", false, "collect and print per-stage occupancy/blocking heat series"),
		Bins:    fs.Int("heat-bins", 32, "heat series time bins"),
	}
}

// Enabled reports whether any probe output was requested.
func (p *ProbeFlagSet) Enabled() bool { return *p.Sample > 0 || *p.Heatmap }

// Options builds the probe configuration, or nil when no probe output
// was requested — the nil keeps the measurement paths untouched.
func (p *ProbeFlagSet) Options() *probe.Options {
	if !p.Enabled() {
		return nil
	}
	return &probe.Options{SampleEvery: *p.Sample, TraceCap: *p.Cap, Bins: *p.Bins}
}

// heatLevels is the 10-step intensity scale heat rows render with.
const heatLevels = " .:-=+*#%@"

// WriteProbeReport renders a probe report for humans: the trace cohort
// summary with its latency quantiles, the per-stage event counts, and
// (when showHeat) one intensity row per stage per heat metric, each
// bin normalized against the metric's hottest bin.
func WriteProbeReport(w io.Writer, rep *probe.Report, showHeat bool) error {
	if rep == nil {
		_, err := fmt.Fprintln(w, "probe: no report")
		return err
	}
	completed := 0
	maxStage := 0
	for i := range rep.Traces {
		if _, ok := rep.Traces[i].Latency(); ok {
			completed++
		}
		for _, hp := range rep.Traces[i].Hops {
			if hp.Stage > maxStage {
				maxStage = hp.Stage
			}
		}
	}
	if _, err := fmt.Fprintf(w, "probe: sampled=%d traces=%d completed=%d\n", rep.Sampled, len(rep.Traces), completed); err != nil {
		return err
	}
	if h := rep.LatencyHistogram(); h.N() > 0 {
		if _, err := fmt.Fprintf(w, "trace latency: %s\n", h); err != nil {
			return err
		}
	}
	if len(rep.Traces) > 0 {
		counts := rep.EventCounts(maxStage) // counts[event][stage]
		// Only events that actually occurred earn a column.
		var events []probe.Event
		for ev := range counts {
			var total int64
			for _, n := range counts[ev] {
				total += n
			}
			if total > 0 {
				events = append(events, probe.Event(ev))
			}
		}
		var sb strings.Builder
		sb.WriteString("stage")
		for _, ev := range events {
			fmt.Fprintf(&sb, " %8s", ev)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
		for s := 0; s <= maxStage; s++ {
			sb.Reset()
			fmt.Fprintf(&sb, "%5d", s)
			for _, ev := range events {
				fmt.Fprintf(&sb, " %8d", counts[ev][s])
			}
			if _, err := fmt.Fprintln(w, sb.String()); err != nil {
				return err
			}
		}
	}
	if showHeat && rep.Heat != nil {
		ht := rep.Heat
		for m, name := range ht.Metrics {
			var peak float64
			for s := 0; s < ht.Stages; s++ {
				for b := 0; b < ht.Bins; b++ {
					if ht.Series[m][s].N(b) > 0 && ht.Series[m][s].Mean(b) > peak {
						peak = ht.Series[m][s].Mean(b)
					}
				}
			}
			if _, err := fmt.Fprintf(w, "heat %s (bin=%d cycles, peak=%.3g/cycle):\n", name, ht.BinCycles, peak); err != nil {
				return err
			}
			for s := 0; s < ht.Stages; s++ {
				row := make([]byte, ht.Bins)
				for b := 0; b < ht.Bins; b++ {
					row[b] = ' '
					if ht.Series[m][s].N(b) > 0 && peak > 0 {
						lvl := int(ht.Series[m][s].Mean(b) / peak * float64(len(heatLevels)-1))
						if lvl < 0 {
							lvl = 0
						}
						if lvl >= len(heatLevels) {
							lvl = len(heatLevels) - 1
						}
						row[b] = heatLevels[lvl]
					}
				}
				if _, err := fmt.Fprintf(w, "  s%-2d |%s|\n", s+1, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ProfileFlagSet holds the optional pprof flags the measuring
// subcommands share.
type ProfileFlagSet struct {
	cpu *string
	mem *string
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *ProfileFlagSet {
	return &ProfileFlagSet{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Run profiles fn as requested: the CPU profile spans fn and the heap
// profile is written after it. Both are finalized on every return path
// once profiling started, so a failing run still leaves a readable CPU
// profile, and a profile that cannot be written is an error.
func (p *ProfileFlagSet) Run(fn func() error) (err error) {
	stop, err := p.start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	return fn()
}

// start begins CPU profiling when requested and returns the function
// that finalizes both requested profiles.
func (p *ProfileFlagSet) start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		cpuFile, err = os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
