package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// lintPrometheus is a minimal checker for the text exposition format:
// every sample line must parse as `name[{labels}] value`, names must
// match the metric grammar, each family's samples must follow its
// `# TYPE` line, and families must appear in sorted order.
func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	typed := ""
	lastFamily := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || !validMetricName(f[2]) {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "untyped":
			default:
				t.Fatalf("bad kind in %q", line)
			}
			if f[2] <= lastFamily {
				t.Fatalf("family %q out of order (after %q)", f[2], lastFamily)
			}
			typed, lastFamily = f[2], f[2]
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !validMetricName(name) {
			t.Fatalf("bad metric name in %q", line)
		}
		if name != typed {
			t.Fatalf("sample %q not under its TYPE line (last TYPE %q)", line, typed)
		}
		val := line[strings.LastIndex(line, " ")+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	// Registered out of order: export must sort.
	r.Add("edn_z_total", "counter", nil, 3)
	r.Add("edn_a_gauge", "gauge", []Label{{"stage", "2"}}, 1.5)
	r.Add("edn_a_gauge", "gauge", []Label{{"stage", "1"}}, 0.5)
	r.Add("edn_m_info", "", []Label{{"v", `qu"ote\back`}}, 1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	lintPrometheus(t, out)
	want := "# TYPE edn_a_gauge gauge\n" +
		"edn_a_gauge{stage=\"1\"} 0.5\n" +
		"edn_a_gauge{stage=\"2\"} 1.5\n" +
		"# TYPE edn_m_info untyped\n" +
		"edn_m_info{v=\"qu\\\"ote\\\\back\"} 1\n" +
		"# TYPE edn_z_total counter\n" +
		"edn_z_total 3\n"
	if out != want {
		t.Fatalf("output:\n%s\nwant:\n%s", out, want)
	}
}

// TestRegistryHistogram pins AddHistogram's exposition: per-bucket
// counts become cumulative le-labelled _bucket samples up to +Inf,
// beside _sum and _count, all under one `# TYPE <family> histogram`
// line and in the registry's sorted order.
func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	// Observations 0.5, 3 and 30 against the bounds 1 and 10.
	r.AddHistogram("dur_seconds", []Label{{"mode", "a"}}, []float64{1, 10}, []uint64{1, 1, 1}, 33.5)
	r.Add("busy", "gauge", nil, 2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE busy gauge\n" +
		"busy 2\n" +
		"# TYPE dur_seconds histogram\n" +
		`dur_seconds_bucket{mode="a",le="+Inf"} 3` + "\n" +
		`dur_seconds_bucket{mode="a",le="1"} 1` + "\n" +
		`dur_seconds_bucket{mode="a",le="10"} 2` + "\n" +
		`dur_seconds_count{mode="a"} 3` + "\n" +
		`dur_seconds_sum{mode="a"} 33.5` + "\n"
	if got := sb.String(); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("a count per bound, without the +Inf bucket, did not panic")
		}
	}()
	r.AddHistogram("short", nil, []float64{1, 10}, []uint64{1, 1}, 0)
}

func TestRegistryJSONLines(t *testing.T) {
	r := NewRegistry()
	r.Add("edn_b", "gauge", []Label{{"k", "v"}}, 2)
	r.Add("edn_a", "counter", nil, 1)
	var sb strings.Builder
	if err := r.WriteJSONLines(&sb); err != nil {
		t.Fatalf("WriteJSONLines: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first struct {
		Name   string            `json:"name"`
		Kind   string            `json:"kind"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first.Name != "edn_a" || first.Value != 1 {
		t.Fatalf("sorted order broken: %+v", first)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", "9leading", "has-dash", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%q) did not panic", bad)
				}
			}()
			NewRegistry().Add(bad, "gauge", nil, 0)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("bad label key did not panic")
			}
		}()
		NewRegistry().Add("edn_ok", "gauge", []Label{{"bad-key", "v"}}, 0)
	}()
}

func TestAddReportMetricSet(t *testing.T) {
	p := New(Options{SampleEvery: 1, Bins: 2, BinCycles: 1})
	p.Bind(2, []string{"occupancy"})
	rec := p.SampleInject(0, 1, 0)
	p.HopRec(rec, 1, EvTraverse, 1)
	p.CloseRec(rec, 2, EvDeliver, 4)
	p.AddStage(0, 0, 2)
	p.AddStage(0, 1, 6)
	p.EndCycle()

	r := NewRegistry()
	r.AddReport(p.Report(), []Label{{"engine", "test"}})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	lintPrometheus(t, out)
	for _, want := range []string{
		`edn_trace_sampled_total{engine="test"} 1`,
		`edn_trace_completed_total{engine="test"} 1`,
		`edn_trace_latency_p50_cycles{engine="test"} 4`,
		`edn_heat_stage_mean{engine="test",metric="occupancy",stage="1"} 2`,
		`edn_heat_stage_mean{engine="test",metric="occupancy",stage="2"} 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// AddReport(nil) is a no-op, not a panic.
	r.AddReport(nil, nil)
}

func TestLatencyHistogramString(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	for i, lat := range []int64{3, 5, 9} {
		rec := p.SampleInject(i, i, 0)
		p.CloseRec(rec, 1, EvDeliver, lat)
	}
	h := p.Report().LatencyHistogram()
	got := fmt.Sprintf("%s", h)
	if !strings.Contains(got, "n=3") || !strings.Contains(got, "p50=5") {
		t.Fatalf("histogram String: %q", got)
	}
}
