package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Label is one metric dimension. Values are escaped at export time, so
// any string is safe.
type Label struct {
	Key   string
	Value string
}

// Metric is one registered sample. Kind is "counter", "gauge" or
// "histogram" (Prometheus TYPE line); the JSON-lines exporter carries
// it verbatim.
type Metric struct {
	Name   string
	Kind   string
	Labels []Label
	Value  float64
}

// Registry is a static metrics registry: sweeps and CLIs register
// final counter/gauge/histogram values and export them
// deterministically (sorted by name, then label set). edn serve
// registers its job ledger into a fresh one per scrape; it deliberately
// has no locking or liveness — callers own the collection moment.
type Registry struct {
	metrics []Metric
	// histFamilies names the histogram families registered through
	// AddHistogram, whose _bucket/_sum/_count samples share one
	// `# TYPE <family> histogram` line at export.
	histFamilies map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers one sample. Names must match the Prometheus metric
// grammar ([a-zA-Z_:][a-zA-Z0-9_:]*); Add panics otherwise, since a
// bad name is a programming error the exporter lint would only catch
// later.
func (r *Registry) Add(name, kind string, labels []Label, value float64) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("probe: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("probe: invalid label key %q on %q", l.Key, name))
		}
	}
	r.metrics = append(r.metrics, Metric{Name: name, Kind: kind, Labels: labels, Value: value})
}

// AddHistogram registers one histogram family as its Prometheus
// exposition series: cumulative name_bucket samples with le labels
// (including the +Inf bucket), name_sum and name_count. counts has one
// entry per bound plus the overflow bucket. The family is typed
// histogram in WritePrometheus.
func (r *Registry) AddHistogram(name string, labels []Label, bounds []float64, counts []uint64, sum float64) {
	if len(counts) != len(bounds)+1 {
		panic(fmt.Sprintf("probe: histogram %q wants %d counts, got %d", name, len(bounds)+1, len(counts)))
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("probe: invalid metric name %q", name))
	}
	if r.histFamilies == nil {
		r.histFamilies = make(map[string]bool)
	}
	r.histFamilies[name] = true
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		ls := append(append([]Label(nil), labels...), Label{"le", le})
		r.Add(name+"_bucket", "histogram", ls, float64(cum))
	}
	r.Add(name+"_sum", "histogram", labels, sum)
	r.Add(name+"_count", "histogram", labels, float64(cum))
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// sorted returns the metrics in export order: by name, then by the
// rendered label set, so output is deterministic regardless of
// registration order.
func (r *Registry) sorted() []Metric {
	out := append([]Metric(nil), r.metrics...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteJSONLines exports one JSON object per line:
// {"name":...,"kind":...,"labels":{...},"value":...}. Label maps
// render with sorted keys (encoding/json), so output is reproducible.
func (r *Registry) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range r.sorted() {
		labels := map[string]string{}
		for _, l := range m.Labels {
			labels[l.Key] = l.Value
		}
		if err := enc.Encode(struct {
			Name   string            `json:"name"`
			Kind   string            `json:"kind"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		}{m.Name, m.Kind, labels, m.Value}); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus exports Prometheus text exposition format: one
// `# TYPE` comment per metric family followed by its samples. The
// _bucket/_sum/_count samples of a histogram family registered through
// AddHistogram share a single `# TYPE <family> histogram` line.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	for _, m := range r.sorted() {
		fam, kind := r.family(m)
		if !typed[fam] {
			typed[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", m.Name, labelString(m.Labels), m.Value); err != nil {
			return err
		}
	}
	return nil
}

// family maps a sample to its exposition family name and type: the
// base name for histogram series, the sample's own name otherwise.
func (r *Registry) family(m Metric) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(m.Name, suf); ok && r.histFamilies[base] {
			return base, "histogram"
		}
	}
	kind := m.Kind
	if kind == "" {
		kind = "untyped"
	}
	return m.Name, kind
}

// AddReport registers the standard metric set derived from a probe
// report under the given base labels: sampled/completed trace
// counters, trace-cohort latency quantiles, and per-metric, per-stage
// heat means. This is the one place report fields are mapped to metric
// names, shared by every CLI exporter.
func (r *Registry) AddReport(rep *Report, labels []Label) {
	if rep == nil {
		return
	}
	r.Add("edn_trace_sampled_total", "counter", labels, float64(rep.Sampled))
	completed := 0
	for i := range rep.Traces {
		if _, ok := rep.Traces[i].Latency(); ok {
			completed++
		}
	}
	r.Add("edn_trace_completed_total", "counter", labels, float64(completed))
	if h := rep.LatencyHistogram(); h.N() > 0 {
		for _, q := range []struct {
			name string
			v    float64
		}{
			{"edn_trace_latency_p50_cycles", h.Quantile(0.50)},
			{"edn_trace_latency_p99_cycles", h.Quantile(0.99)},
			{"edn_trace_latency_mean_cycles", h.Mean()},
		} {
			r.Add(q.name, "gauge", labels, q.v)
		}
	}
	if rep.Heat == nil {
		return
	}
	for m, name := range rep.Heat.Metrics {
		for s := 0; s < rep.Heat.Stages; s++ {
			var acc float64
			n := 0
			for b := 0; b < rep.Heat.Bins; b++ {
				if rep.Heat.Series[m][s].N(b) > 0 {
					acc += rep.Heat.Series[m][s].Mean(b)
					n++
				}
			}
			if n == 0 {
				continue
			}
			ls := append(append([]Label(nil), labels...),
				Label{"metric", name}, Label{"stage", fmt.Sprintf("%d", s+1)})
			r.Add("edn_heat_stage_mean", "gauge", ls, acc/float64(n))
		}
	}
}
