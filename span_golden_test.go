package edn

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// spanShapeFile holds the rendered span tree of every spanShapeSpecs
// job: span names, attributes sorted by key and children in order —
// never timings.
const spanShapeFile = "testdata/span_shapes.golden"

type namedSpec struct {
	name string
	spec JobSpec
}

// spanShapeSpecs runs every mode with 2 or 3 shards, so shard, merge
// and (with probe and explain sections) observe stages all appear.
// The 61-cycle budget over 3 shards pins the remainder split.
func spanShapeSpecs() []namedSpec {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim2 := SimSpec{Cycles: 60, Warmup: 10, Seed: 3, Shards: 2}
	sim3 := SimSpec{Cycles: 61, Warmup: 10, Seed: 3, Shards: 3}
	probe := &ProbeSpec{SampleEvery: 3, TraceCap: 16, Bins: 4}
	explain := &ExplainSpec{TopK: 2}
	life := &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3, Load: 0.6}
	loopLife := &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3, Load: 0.4}
	loop := &ClosedLoopSpec{Window: 2}
	avail := &AvailabilitySpec{Fractions: []float64{0, 0.2}, Load: 0.8}
	return []namedSpec{
		{"latency", JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.7, Sim: sim3}},
		{"saturation", JobSpec{Mode: JobSaturation, Geometry: geo, Loads: []float64{0.3, 0.6, 0.9}, Sim: sim2}},
		{"drain", JobSpec{Mode: JobDrain, Geometry: geo, DrainQ: 2, Sim: sim2}},
		{"availability-edn", JobSpec{Mode: JobAvailability, Geometry: geo, Avail: avail, Sim: sim3}},
		{"availability-dilated", JobSpec{Mode: JobAvailability, Engine: EngineDilated, Geometry: geo, Avail: avail, Sim: sim2}},
		{"lifetime-edn", JobSpec{Mode: JobLifetime, Geometry: geo, Lifetime: life, Sim: sim2}},
		{"lifetime-dilated", JobSpec{Mode: JobLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life, Probe: probe, Sim: sim3}},
		{"closedloop-edn", JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.2, 0.5}, Loop: loop, Sim: sim2}},
		{"closedloop-dilated", JobSpec{Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo, Rates: []float64{0.3}, Loop: loop, Sim: sim3}},
		{"closedloop-lifetime-edn", JobSpec{Mode: JobClosedLoopLifetime, Geometry: geo, Lifetime: loopLife, Loop: loop, Sim: sim2}},
		{"closedloop-lifetime-dilated", JobSpec{Mode: JobClosedLoopLifetime, Engine: EngineDilated, Geometry: geo,
			Lifetime: loopLife, Loop: loop, Probe: probe, Sim: sim3}},
		{"estimate-faults", JobSpec{Mode: JobEstimate, Geometry: geo, Load: 0.6, Estimate: &EstimateSpec{Src: 1, Dst: 5},
			Faults: &FaultsSpec{Fraction: 0.1, Seed: 2}, Sim: sim2}},
		{"latency-observed", JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.8, Probe: probe, Explain: explain, Sim: sim2}},
		{"saturation-observed", JobSpec{Mode: JobSaturation, Engine: EngineDilated, Geometry: geo, Loads: []float64{0.5, 0.9},
			Probe: probe, Explain: explain, Sim: sim3}},
		{"closedloop-observed", JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.3}, Loop: loop,
			Probe: probe, Explain: explain, Sim: sim2}},
	}
}

// renderSpanShape writes a span tree one span per line, indented by
// depth: the name, then every attribute as key=value sorted by key.
func renderSpanShape(b *strings.Builder, root *Span) {
	root.Walk(func(depth int, s *Span) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, s.Attrs[k])
		}
		b.WriteByte('\n')
	})
}

// TestSpanShapesGolden pins the span tree every mode records under
// RunJob against a file recorded before the sharded harnesses were
// folded onto one skeleton: a lost observe stage, a changed cycle share
// or a reordered merge all show here, where a run-to-run comparison of
// one binary cannot see them. On a mismatch it prints the complete new
// file.
func TestSpanShapesGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range spanShapeSpecs() {
		tr := NewSpanCollector("job")
		if _, err := RunJob(context.Background(), c.spec, RunOptions{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s\n", c.name)
		renderSpanShape(&b, tr.Finish())
	}
	want, err := os.ReadFile(spanShapeFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("span shapes differ from %s", spanShapeFile)
		t.Logf("new span shapes:\n%s", got)
	}
}
