package edn

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// equalResults is reflect.DeepEqual with NaN == NaN (lifetime results
// carry NaN for "no recovery event observed", which is an equal
// outcome, not a divergent one).
func equalResults(a, b any) bool {
	return equalValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func equalValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
			return true
		}
		return a.Float() == b.Float()
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			af, bf := a.Field(i), b.Field(i)
			if !af.CanInterface() {
				// Unexported field (histograms, time series): fall back
				// to DeepEqual on the whole struct via unsafe-free
				// comparison of the exported views is impossible here,
				// so compare the containing structs directly.
				return reflect.DeepEqual(forceInterface(a), forceInterface(b))
			}
			if !equalValue(af, bf) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil()) {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		return reflect.DeepEqual(forceInterface(a), forceInterface(b))
	default:
		return reflect.DeepEqual(forceInterface(a), forceInterface(b))
	}
}

func forceInterface(v reflect.Value) any {
	if v.CanInterface() {
		return v.Interface()
	}
	return nil
}

// jobspec_test.go pins the JobSpec layer three ways: JSON round-trips
// for every mode/engine combination (a spec is a wire format; losing a
// field silently would corrupt replayed jobs), Run-vs-facade
// bit-for-bit equivalence (a spec run through the dispatcher is the
// same measurement the facade function performs), and geometry-cache
// transparency (cached artifacts change nothing, including across
// UpdateFaults churn).

// testSpecs enumerates one representative JobSpec per mode/engine
// combination, all on daemon-smoke-sized geometries.
func testSpecs() map[string]JobSpec {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	dil := &DilatedGeometrySpec{B: 2, D: 2, L: 3}
	sim := SimSpec{Cycles: 300, Warmup: 40, Seed: 7, Shards: 2}
	queue := &QueueSpec{Depth: 2, Policy: "drop", Arbiter: "roundrobin"}
	return map[string]JobSpec{
		"latency-edn": {
			Mode: JobLatency, Geometry: geo, Load: 0.8,
			Traffic: &TrafficSpec{Kind: "bursty", MeanBurst: 4},
			Queue:   queue, Sim: sim,
		},
		"latency-dilated-faulty": {
			Mode: JobLatency, Engine: EngineDilated, Dilated: dil, Load: 0.9,
			Queue: queue, Faults: &FaultsSpec{Fraction: 0.1, Seed: 3}, Sim: sim,
		},
		"saturation-edn": {
			Mode: JobSaturation, Geometry: geo, Loads: []float64{0.4, 0.8},
			Queue: &QueueSpec{Depth: 4}, Sim: sim,
		},
		"saturation-dilated": {
			Mode: JobSaturation, Engine: EngineDilated, Geometry: geo,
			Loads: []float64{0.5, 1}, Queue: queue, Sim: sim,
		},
		"drain-edn": {
			Mode: JobDrain, Geometry: geo, DrainQ: 2,
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"drain-dilated": {
			Mode: JobDrain, Engine: EngineDilated, Dilated: dil, DrainQ: 2,
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"availability-edn": {
			Mode: JobAvailability, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.05, 0.2}, Mode: "mixed", Load: 0.9, WithExpected: true},
			Queue: queue, Sim: sim,
		},
		"availability-dilated": {
			Mode: JobAvailability, Engine: EngineDilated, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}},
			Queue: queue, Sim: sim,
		},
		"lifetime-edn": {
			Mode: JobLifetime, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 4, EpochCycles: 60, MTBF: 30, MTTR: 4,
				Mode: "switches", Timing: "deterministic", BlastRate: 0.2, BlastRadius: 1, RepairWindow: 2},
			Queue: queue, Sim: sim,
		},
		"lifetime-dilated": {
			Mode: JobLifetime, Engine: EngineDilated, Dilated: dil,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 50, MTBF: 20, MTTR: 3},
			Queue:    queue, Sim: sim,
		},
		"closedloop-edn": {
			Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.2, 0.5},
			Loop: &ClosedLoopSpec{Window: 2, Timeout: 32, MaxAttempts: 3, Retry: "backoff",
				BackoffBase: 2, BackoffCap: 16, SLAZero: 8, SLADeadline: 40},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"closedloop-dilated": {
			Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo,
			Rates: []float64{0.3}, Loop: &ClosedLoopSpec{Window: 4},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"closedloop-lifetime-edn": {
			Mode: JobClosedLoopLifetime, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 60, MTBF: 25, MTTR: 4, Load: 0.4},
			Loop:     &ClosedLoopSpec{Window: 2, Timeout: 32},
			Queue:    &QueueSpec{Depth: 2, Policy: "drop"}, Sim: sim,
		},
		"closedloop-lifetime-dilated": {
			Mode: JobClosedLoopLifetime, Engine: EngineDilated, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 60, MTBF: 25, MTTR: 4, Load: 0.4},
			Loop:     &ClosedLoopSpec{Window: 2},
			Queue:    &QueueSpec{Depth: 2, Policy: "drop"}, Sim: sim,
		},
		"estimate-edn": {
			Mode: JobEstimate, Geometry: geo, Load: 0.7,
			Estimate: &EstimateSpec{Src: 1, Dst: 5},
			Faults:   &FaultsSpec{Mode: "wires", Fraction: 0.05, Seed: 9},
			Queue:    &QueueSpec{Depth: 2}, Sim: sim,
		},
		"probe-saturation": {
			Mode: JobSaturation, Geometry: geo, Loads: []float64{0.9},
			Probe: &ProbeSpec{SampleEvery: 4, TraceCap: 64, Bins: 8, Seed: 2},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
	}
}

// TestJobSpecRoundTrip pins that every spec survives a JSON round trip
// field for field: marshal, unmarshal, compare, and re-marshal to the
// identical bytes.
func TestJobSpecRoundTrip(t *testing.T) {
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back JobSpec
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Fatalf("round trip changed the spec:\n  out: %+v\n  back: %+v", spec, back)
			}
			blob2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Fatalf("re-marshal differs:\n  %s\n  %s", blob, blob2)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("spec does not validate: %v", err)
			}
		})
	}
}

// TestRunMatchesFacade pins Run(spec) bit-for-bit against the facade
// function each mode/engine wraps, for every deterministic spec (the
// random arbiter is excluded by construction — testSpecs uses
// roundrobin, whose state is per-switch and replayable).
func TestRunMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			got, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := facadeRun(t, spec)
			if !equalResults(got, want) {
				t.Fatalf("Run diverges from facade:\n  got:  %+v\n  want: %+v", got, want)
			}
		})
	}
}

// facadeRun evaluates spec through the pre-JobSpec facade functions —
// the reference the dispatcher must reproduce exactly.
func facadeRun(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	j, err := compileJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.wireCache(nil, nil); err != nil {
		t.Fatal(err)
	}
	res := &JobResult{Spec: spec}
	load := spec.Load
	if load <= 0 {
		load = 1
	}
	switch spec.Mode {
	case JobLatency:
		res.Points, err = SaturationSweep(j.net(), []float64{load}, j.src, j.opts, j.shards)
	case JobSaturation:
		res.Points, err = SaturationSweep(j.net(), spec.Loads, j.src, j.opts, j.shards)
	case JobDrain:
		var r DrainResult
		r, err = DrainPermutations(j.net(), spec.DrainQ, j.opts)
		res.Drain = &r
	case JobAvailability:
		res.Availability, err = AvailabilitySweep(j.net(), j.aopts, j.src, j.opts, j.shards)
	case JobLifetime:
		var r LifetimeResult
		r, err = LifetimeSweep(j.net(), j.lopts, j.src, j.opts, j.shards)
		res.Lifetime = &r
	case JobClosedLoop:
		res.ClosedLoop, err = MeasureClosedLoop(j.net(), spec.Rates, j.lo, j.opts, j.shards)
	case JobClosedLoopLifetime:
		var r ClosedLoopLifetimeResult
		r, err = ClosedLoopLifetimeSweep(j.net(), j.lopts, j.lo, j.opts, j.shards)
		res.ClosedLoopLifetime = &r
	case JobEstimate:
		// The estimate's measured half is pinned to the saturation
		// facade; the analytic half is deterministic arithmetic. Just
		// reproduce runEstimate's measurement through the facade.
		pts, serr := SaturationSweep(j.edn, []float64{load}, j.src, j.opts, j.shards)
		if serr != nil {
			t.Fatal(serr)
		}
		r := pts[0]
		out := &EstimateResult{
			Config: j.edn.Config, Src: spec.Estimate.Src, Dst: spec.Estimate.Dst, Load: load,
			SrcLive: true, DstReachable: true, Hops: j.edn.Config.Stages(), AnalyticPA: PA(j.edn.Config, load),
		}
		if m := j.edn.Queue.Faults; m != nil && !m.Empty() {
			if li := m.LiveInputs(); li != nil {
				out.SrcLive = li[spec.Estimate.Src]
			}
			live := make([]bool, j.edn.Config.Outputs())
			m.ReachableOutputsInto(live)
			out.DstReachable = live[spec.Estimate.Dst]
		}
		if out.SrcLive && out.DstReachable {
			out.Cycles, out.Throughput = r.Cycles, r.Throughput
			out.LatencyMean, out.LatencyP50 = r.LatencyMean, r.LatencyP50
			out.LatencyP95, out.LatencyP99, out.LatencyMax = r.LatencyP95, r.LatencyP99, r.LatencyMax
		}
		res.Estimate = out
	default:
		t.Fatalf("unknown mode %q", spec.Mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunStreamsPoints pins the OnPoint contract: every sweep point is
// delivered in order, with the same value the final result carries.
func TestRunStreamsPoints(t *testing.T) {
	spec := testSpecs()["saturation-edn"]
	var streamed []LatencyResult
	var indices []int
	res, err := RunJob(context.Background(), spec, RunOptions{
		OnPoint: func(i, total int, point any) {
			if total != len(spec.Loads) {
				t.Errorf("total = %d, want %d", total, len(spec.Loads))
			}
			indices = append(indices, i)
			streamed = append(streamed, point.(LatencyResult))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indices, []int{0, 1}) {
		t.Fatalf("indices = %v", indices)
	}
	if !reflect.DeepEqual(streamed, res.Points) {
		t.Fatalf("streamed points differ from final result")
	}
}

// TestRunCancellation pins that a cancelled context stops a sweep
// between points with the context's error.
func TestRunCancellation(t *testing.T) {
	spec := testSpecs()["saturation-edn"]
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunJob(ctx, spec, RunOptions{
		OnPoint: func(i, total int, point any) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCacheTransparent is the cache-correctness property test: for
// every spec, a Run through a shared GeometryCache is bit-identical to
// an uncached Run — including the lifetime modes, whose engines mutate
// fault state via UpdateFaults between epochs on top of the shared
// cached tables, and a second pass over the warm cache.
func TestRunCacheTransparent(t *testing.T) {
	cache := NewGeometryCache(0)
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			fresh, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunJob(ctx, spec, RunOptions{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(fresh, cold) {
				t.Fatalf("cold cached run diverges from fresh run")
			}
			warm, err := RunJob(ctx, spec, RunOptions{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(fresh, warm) {
				t.Fatalf("warm cached run diverges from fresh run")
			}
		})
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
}

// TestJobSpecValidation pins the error surface: bad specs fail fast in
// Validate, before any cycles run.
func TestJobSpecValidation(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	bad := map[string]JobSpec{
		"unknown-mode":      {Mode: "warp", Geometry: geo},
		"unknown-engine":    {Mode: JobLatency, Engine: "quantum", Geometry: geo},
		"pair-engine":       {Mode: JobClosedLoop, Engine: "pair", Geometry: geo, Rates: []float64{0.4}, Loop: &ClosedLoopSpec{}},
		"missing-geometry":  {Mode: JobLatency},
		"negative-shards":   {Mode: JobLatency, Geometry: geo, Sim: SimSpec{Shards: -1}},
		"empty-loads":       {Mode: JobSaturation, Geometry: geo},
		"empty-rates":       {Mode: JobClosedLoop, Geometry: geo, Loop: &ClosedLoopSpec{}},
		"missing-avail":     {Mode: JobAvailability, Geometry: geo},
		"missing-lifetime":  {Mode: JobLifetime, Geometry: geo},
		"drain-no-q":        {Mode: JobDrain, Geometry: geo},
		"bad-traffic":       {Mode: JobLatency, Geometry: geo, Traffic: &TrafficSpec{Kind: "adversarial"}},
		"bad-policy":        {Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{Policy: "teleport"}},
		"bad-arbiter":       {Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{Arbiter: "coin"}},
		"bad-fault-mode":    {Mode: JobLatency, Geometry: geo, Faults: &FaultsSpec{Mode: "gremlins"}},
		"fault-frac-range":  {Mode: JobLatency, Geometry: geo, Faults: &FaultsSpec{Fraction: 1.5}},
		"estimate-no-sect":  {Mode: JobEstimate, Geometry: geo},
		"estimate-dilated":  {Mode: JobEstimate, Engine: EngineDilated, Geometry: geo, Estimate: &EstimateSpec{}},
		"estimate-src-oob":  {Mode: JobEstimate, Geometry: geo, Estimate: &EstimateSpec{Src: 99}},
		"estimate-dst-oob":  {Mode: JobEstimate, Geometry: geo, Estimate: &EstimateSpec{Dst: -1}},
		"bad-geometry":      {Mode: JobLatency, Geometry: &GeometrySpec{A: 0, B: 2, C: 2, L: 2}},
		"bad-retry":         {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.5}, Loop: &ClosedLoopSpec{Retry: "pray"}},
		"bad-timing":        {Mode: JobLifetime, Geometry: geo, Lifetime: &LifetimeSpec{Epochs: 2, MTBF: 10, MTTR: 2, Timing: "lunar"}},
		"dilated-no-config": {Mode: JobLatency, Engine: EngineDilated},
	}
	for name, spec := range bad {
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err == nil {
				t.Fatalf("spec validated but should not have: %+v", spec)
			}
		})
	}
	// A comparison is two jobs, one per engine; "pair" names none.
	if err := bad["pair-engine"].Validate(); err == nil || !strings.HasPrefix(err.Error(), "edn: unknown engine") {
		t.Errorf("pair engine: got %v, want an edn: unknown engine error", err)
	}
}

// TestNegativeShardsUniform pins satellite semantics: every sharded
// facade entry point now rejects negative shard counts with an error
// instead of silently reinterpreting them.
func TestNegativeShardsUniform(t *testing.T) {
	cfg, err := New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Cycles: 100}
	lopts := LifetimeOptions{Epochs: 2, Spec: LifecycleSpec{MTBF: 10, MTTR: 2}}
	ednNet, dilNet := EDNNet{Config: cfg}, DilatedNet{Config: dcfg}
	if _, err := SaturationSweep(ednNet, []float64{1}, nil, opts, -1); err == nil {
		t.Error("SaturationSweep accepted negative shards")
	}
	if _, err := SaturationSweep(dilNet, []float64{1}, nil, opts, -2); err == nil {
		t.Error("dilated SaturationSweep accepted negative shards")
	}
	if _, err := AvailabilitySweep(ednNet, AvailabilityOptions{Fractions: []float64{0.1}}, nil, opts, -1); err == nil {
		t.Error("AvailabilitySweep accepted negative shards")
	}
	if _, err := AvailabilitySweep(dilNet, AvailabilityOptions{Fractions: []float64{0.1}}, nil, opts, -1); err == nil {
		t.Error("dilated AvailabilitySweep accepted negative shards")
	}
	if _, err := LifetimeSweep(ednNet, lopts, nil, opts, -1); err == nil {
		t.Error("LifetimeSweep accepted negative shards")
	}
	if _, err := LifetimeSweep(dilNet, lopts, nil, opts, -1); err == nil {
		t.Error("dilated LifetimeSweep accepted negative shards")
	}
	if _, err := MeasureClosedLoop(ednNet, []float64{0.5}, ClosedLoopOptions{}, opts, -1); err == nil {
		t.Error("MeasureClosedLoop accepted negative shards")
	}
	if _, err := MeasureClosedLoop(dilNet, []float64{0.5}, ClosedLoopOptions{}, opts, -1); err == nil {
		t.Error("dilated MeasureClosedLoop accepted negative shards")
	}
	if _, err := ClosedLoopLifetimeSweep(ednNet, lopts, ClosedLoopOptions{}, opts, -1); err == nil {
		t.Error("ClosedLoopLifetimeSweep accepted negative shards")
	}
	if _, err := ClosedLoopLifetimeSweep(dilNet, lopts, ClosedLoopOptions{}, opts, -1); err == nil {
		t.Error("dilated ClosedLoopLifetimeSweep accepted negative shards")
	}
}

// TestJobResultMarshals pins that every mode's JobResult is valid JSON
// — the contract the serve daemon and the -spec replay path depend on.
// Lifetime results carry a NaN RecoveryHalfLife when no degradation
// event was observed; the JSON face encodes it as null (encoding/json
// rejects NaN outright), and the per-epoch series marshal as
// means/ci95 arrays rather than opaque accumulators.
func TestJobResultMarshals(t *testing.T) {
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("JobResult does not marshal: %v", err)
			}
			var m map[string]any
			if err := json.Unmarshal(blob, &m); err != nil {
				t.Fatalf("JobResult JSON does not parse back: %v", err)
			}
			if spec.Mode == JobLifetime {
				lr, ok := m["lifetime"].(map[string]any)
				if !ok {
					t.Fatalf("missing %q in marshaled result", "lifetime")
				}
				bw, ok := lr["Bandwidth"].(map[string]any)
				if !ok {
					t.Fatalf("Bandwidth series lost in JSON: %v", lr["Bandwidth"])
				}
				if _, ok := bw["means"].([]any); !ok {
					t.Fatalf("Bandwidth series has no means array: %v", bw)
				}
			}
		})
	}
}

// TestRunRejectsNonFiniteInputs pins the one fault-fraction check and
// the one churn-clock validator at the job level: NaN fault fractions
// (the static sample and the swept axis) and non-finite MTBF/MTTR fail
// on both engines instead of running, and a finite but huge MTBF runs
// as "never fails".
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim := SimSpec{Cycles: 50, Warmup: 10, Seed: 1, Shards: 1}
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]JobSpec{
		"static-nan": {Mode: JobLatency, Geometry: geo, Faults: &FaultsSpec{Fraction: nan}, Sim: sim},
	}
	for _, engine := range []string{EngineEDN, EngineDilated} {
		bad[engine+"/sweep-nan"] = JobSpec{Mode: JobAvailability, Engine: engine, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0, nan}}, Sim: sim}
		for i, clocks := range [][2]float64{{nan, 5}, {10, nan}, {inf, 5}, {10, inf}} {
			bad[fmt.Sprintf("%s/clocks%d", engine, i)] = JobSpec{Mode: JobLifetime, Engine: engine, Geometry: geo,
				Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 20, MTBF: clocks[0], MTTR: clocks[1]}, Sim: sim}
		}
	}
	for name, spec := range bad {
		if _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("%s: ran without error", name)
		}
	}
	for _, engine := range []string{EngineEDN, EngineDilated} {
		res, err := Run(context.Background(), JobSpec{Mode: JobLifetime, Engine: engine, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 6, EpochCycles: 20, MTBF: 1e17, MTTR: 5}, Sim: sim})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 6; e++ {
			if f := res.Lifetime.DeadFraction.Mean(e); f != 0 {
				t.Errorf("%s epoch %d: MTBF 1e17 dead fraction %g", engine, e, f)
			}
		}
	}
}

// TestHostileSpecsAreErrors pins that job inputs which would crash a
// run (negative probe sizes reach probe.New's allocations; a lifetime
// load outside [0,1] reaches the analytic threshold) or silently
// mis-measure it (a negative warmup shortens the window but not the
// divisor; a load or rate outside [0,1], NaN among them, runs as given
// or as the default; a NaN threshold is never crossed) are edn: errors
// from Validate, and errors — never panics — from Run.
func TestHostileSpecsAreErrors(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim := SimSpec{Cycles: 50, Warmup: 10, Seed: 1, Shards: 1}
	latency := func(mut func(*JobSpec)) JobSpec {
		s := JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.5, Sim: sim}
		mut(&s)
		return s
	}
	loop := &ClosedLoopSpec{Window: 2}
	nan := math.NaN()
	avail := func(load float64) JobSpec {
		return JobSpec{Mode: JobAvailability, Geometry: geo, Sim: sim,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}, Load: load}}
	}
	lifetime := func(mode, engine string, mut func(*LifetimeSpec)) JobSpec {
		l := &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3}
		mut(l)
		return JobSpec{Mode: mode, Engine: engine, Geometry: geo, Sim: sim, Lifetime: l, Loop: loop}
	}
	bad := map[string]JobSpec{
		"trace-cap":                     latency(func(s *JobSpec) { s.Probe = &ProbeSpec{SampleEvery: 1, TraceCap: -1} }),
		"max-hops":                      latency(func(s *JobSpec) { s.Probe = &ProbeSpec{SampleEvery: 1, MaxHops: -3} }),
		"bins":                          latency(func(s *JobSpec) { s.Probe = &ProbeSpec{Bins: -2} }),
		"sample-every":                  latency(func(s *JobSpec) { s.Probe = &ProbeSpec{SampleEvery: -1} }),
		"warmup":                        latency(func(s *JobSpec) { s.Sim.Warmup = -10 }),
		"load-high":                     latency(func(s *JobSpec) { s.Load = 7 }),
		"load-nan":                      latency(func(s *JobSpec) { s.Load = nan }),
		"loads-low":                     {Mode: JobSaturation, Geometry: geo, Loads: []float64{-1}, Sim: sim},
		"loads-nan":                     {Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5, nan}, Sim: sim},
		"rates-high":                    {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{3}, Loop: loop, Sim: sim},
		"rates-nan":                     {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{nan}, Loop: loop, Sim: sim},
		"avail-load-nan":                avail(nan),
		"avail-load-low":                avail(-3),
		"avail-load-high":               avail(7),
		"lifetime-load-nan":             lifetime(JobLifetime, EngineEDN, func(l *LifetimeSpec) { l.Load = nan }),
		"lifetime-load-high":            lifetime(JobLifetime, EngineEDN, func(l *LifetimeSpec) { l.Load = 7 }),
		"lifetime-dilated-load-nan":     lifetime(JobLifetime, EngineDilated, func(l *LifetimeSpec) { l.Load = nan }),
		"lifetime-dilated-load-high":    lifetime(JobLifetime, EngineDilated, func(l *LifetimeSpec) { l.Load = 7 }),
		"closedloop-lifetime-load-high": lifetime(JobClosedLoopLifetime, EngineEDN, func(l *LifetimeSpec) { l.Load = 1.5 }),
		"lifetime-threshold-nan":        lifetime(JobLifetime, EngineEDN, func(l *LifetimeSpec) { l.Threshold = nan }),
		"lifetime-probe": {Mode: JobLifetime, Geometry: geo, Sim: sim,
			Lifetime: &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3},
			Probe:    &ProbeSpec{SampleEvery: 1, TraceCap: -1}},
		// The dilated engine fails only by sub-wires: EDN populations,
		// blasts and repair windows are errors, not silently dropped.
		"dilated-avail-mode": {Mode: JobAvailability, Engine: EngineDilated, Geometry: geo, Sim: sim,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}, Mode: "switches"}},
		"dilated-faults-mode": latency(func(s *JobSpec) {
			s.Engine, s.Faults = EngineDilated, &FaultsSpec{Mode: "switches", Fraction: 0.1}
		}),
		"dilated-lifetime-mode":          lifetime(JobLifetime, EngineDilated, func(l *LifetimeSpec) { l.Mode = "switches" }),
		"dilated-lifetime-blast-rate":    lifetime(JobLifetime, EngineDilated, func(l *LifetimeSpec) { l.BlastRate = 0.2 }),
		"dilated-lifetime-repair-window": lifetime(JobClosedLoopLifetime, EngineDilated, func(l *LifetimeSpec) { l.RepairWindow = 2 }),
	}
	// The field each dilated rejection must name.
	fields := map[string]string{
		"dilated-avail-mode":             "avail.mode",
		"dilated-faults-mode":            "faults.mode",
		"dilated-lifetime-mode":          "lifetime.mode",
		"dilated-lifetime-blast-rate":    "lifetime.blast_rate",
		"dilated-lifetime-repair-window": "lifetime.repair_window",
	}
	for name, spec := range bad {
		t.Run(name, func(t *testing.T) {
			err := spec.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), "edn: ") {
				t.Errorf("Validate: want an edn: error, got %v", err)
			} else if f := fields[name]; !strings.Contains(err.Error(), f) {
				t.Errorf("Validate: %v does not name %s", err, f)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			if _, err := Run(context.Background(), spec); err == nil {
				t.Error("Run accepted the spec")
			}
		})
	}
	// "wires" names the sub-wires on the dilated engine, as the
	// closed-loop churn benchmark sends it, and so does a repair window
	// of 1 (immediate repair).
	wires := lifetime(JobClosedLoopLifetime, EngineDilated, func(l *LifetimeSpec) { l.Mode, l.RepairWindow = "wires", 1 })
	if err := wires.Validate(); err != nil {
		t.Errorf("dilated wire churn rejected: %v", err)
	}
}

// TestNegativeSizesAreErrors pins that a negative count, cycle budget
// or bucket width in any section is one edn: error naming its field,
// from Validate and from Run. Each used to run on the field's default
// while the JobResult echoed the negative value; 0 still selects the
// default.
func TestNegativeSizesAreErrors(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	base := func() JobSpec {
		return JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.5},
			Sim: SimSpec{Cycles: 60, Warmup: 10, Seed: 1, Shards: 1}, Queue: &QueueSpec{},
			Loop: &ClosedLoopSpec{}, Explain: &ExplainSpec{}}
	}
	lifetime := func() JobSpec {
		return JobSpec{Mode: JobLifetime, Geometry: geo, Sim: SimSpec{Warmup: 10, Seed: 1, Shards: 1},
			Lifetime: &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3}}
	}
	for field, spec := range map[string]func() JobSpec{
		"sim.cycles":                 func() JobSpec { s := base(); s.Sim.Cycles = -5; return s },
		"lifetime.epoch_cycles":      func() JobSpec { s := lifetime(); s.Lifetime.EpochCycles = -7; return s },
		"loop.window":                func() JobSpec { s := base(); s.Loop.Window = -3; return s },
		"loop.service_cycles":        func() JobSpec { s := base(); s.Loop.ServiceCycles = -1; return s },
		"loop.timeout":               func() JobSpec { s := base(); s.Loop.Timeout = -3; return s },
		"loop.backoff_base":          func() JobSpec { s := base(); s.Loop.BackoffBase = -2; return s },
		"loop.backoff_cap":           func() JobSpec { s := base(); s.Loop.BackoffCap = -8; return s },
		"loop.max_backlog":           func() JobSpec { s := base(); s.Loop.MaxBacklog = -1; return s },
		"loop.latency_buckets":       func() JobSpec { s := base(); s.Loop.LatencyBuckets = -4; return s },
		"loop.latency_bucket_width":  func() JobSpec { s := base(); s.Loop.LatencyBucketWidth = -0.5; return s },
		"queue.latency_buckets":      func() JobSpec { s := base(); s.Queue.LatencyBuckets = -4; return s },
		"queue.latency_bucket_width": func() JobSpec { s := base(); s.Queue.LatencyBucketWidth = -2; return s },
		"explain.top_k":              func() JobSpec { s := base(); s.Explain.TopK = -1; return s },
		"explain.hist_buckets":       func() JobSpec { s := base(); s.Explain.HistBuckets = -6; return s },
		"explain.hist_bucket_width":  func() JobSpec { s := base(); s.Explain.HistBucketWidth = -1; return s },
	} {
		t.Run(field, func(t *testing.T) {
			err := spec().Validate()
			if err == nil || !strings.HasPrefix(err.Error(), "edn: "+field+" ") || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Validate: want one edn: error naming %s, got %v", field, err)
			}
			if _, err := Run(context.Background(), spec()); err == nil {
				t.Error("Run accepted the spec")
			}
		})
	}
	for _, ok := range []JobSpec{base(), lifetime()} {
		if err := ok.Validate(); err != nil {
			t.Errorf("zero sizes must select the defaults: %v", err)
		}
	}
}

// TestTrafficSpecIsBounded: a hot_fraction that is NaN or outside
// [0,1] and a non-finite mean_burst are edn: errors, not a clamped
// fraction or sources that never turn on; a burst below 1 still
// behaves as 1.
func TestTrafficSpecIsBounded(t *testing.T) {
	spec := func(tr TrafficSpec) JobSpec {
		return JobSpec{Mode: JobLatency, Geometry: &GeometrySpec{A: 4, B: 2, C: 2, L: 2}, Load: 0.5,
			Traffic: &tr, Sim: SimSpec{Cycles: 50, Warmup: 10, Seed: 1, Shards: 1}}
	}
	nan := math.NaN()
	bad := map[string]TrafficSpec{
		"hot-fraction-nan":  {Kind: "hotspot", HotFraction: nan},
		"hot-fraction-low":  {Kind: "hotspot", HotFraction: -0.5},
		"hot-fraction-high": {Kind: "moving-hotspot", HotFraction: 2},
		"mean-burst-nan":    {Kind: "bursty", MeanBurst: nan},
		"mean-burst-inf":    {Kind: "bursty", MeanBurst: math.Inf(1)},
	}
	for name, tr := range bad {
		t.Run(name, func(t *testing.T) {
			if err := spec(tr).Validate(); err == nil || !strings.HasPrefix(err.Error(), "edn: ") {
				t.Errorf("Validate: want an edn: error, got %v", err)
			}
		})
	}
	short, err := Run(context.Background(), spec(TrafficSpec{Kind: "bursty", MeanBurst: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(context.Background(), spec(TrafficSpec{Kind: "bursty", MeanBurst: 1}))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(short.Points)
	b, _ := json.Marshal(one.Points)
	if len(short.Points) != 1 || string(a) != string(b) {
		t.Errorf("mean_burst 0.5 ran unlike mean_burst 1:\n%s\n%s", a, b)
	}
}

// TestHotSpotHotWraps pins one rule for both hot-spot kinds: a hot
// output is reduced into [0, outputs), so on EDN(4,2,2,2)'s 8 outputs a
// hotspot spec aimed at -3 or 13 measures what one aimed at 5 does.
// Only the pattern label, which names the spec's own hot value,
// differs.
func TestHotSpotHotWraps(t *testing.T) {
	run := func(hot int) []LatencyResult {
		t.Helper()
		res, err := Run(context.Background(), JobSpec{Mode: JobSaturation, Geometry: &GeometrySpec{A: 4, B: 2, C: 2, L: 2},
			Loads: []float64{0.4, 0.7}, Traffic: &TrafficSpec{Kind: "hotspot", HotFraction: 0.5, Hot: hot},
			Queue: &QueueSpec{Depth: 2}, Sim: SimSpec{Cycles: 200, Warmup: 20, Seed: 3, Shards: 1}})
		if err != nil {
			t.Fatalf("hot %d: %v", hot, err)
		}
		for i := range res.Points {
			res.Points[i].Pattern = ""
		}
		return res.Points
	}
	want := run(5)
	for _, hot := range []int{-3, 13} {
		if got := run(hot); !equalResults(got, want) {
			t.Errorf("hot %d measured unlike hot 5:\n%+v\n%+v", hot, got, want)
		}
	}
}

// TestProbeNeedsAnObservedReport pins that a probe section is an edn:
// error on the modes whose results have no observed report to carry it
// (estimate, availability, drain), while the modes that carry one, and
// explain on estimate, stay valid.
func TestProbeNeedsAnObservedReport(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim := SimSpec{Cycles: 50, Warmup: 10, Seed: 1, Shards: 1}
	probe := &ProbeSpec{SampleEvery: 2, TraceCap: 16, Bins: 4}
	life := &LifetimeSpec{Epochs: 2, EpochCycles: 20, MTBF: 8, MTTR: 3}
	loop := &ClosedLoopSpec{Window: 2}
	for _, tc := range []struct {
		name  string
		spec  JobSpec
		valid bool
	}{
		{"estimate", JobSpec{Mode: JobEstimate, Geometry: geo, Load: 0.5,
			Estimate: &EstimateSpec{Src: 1, Dst: 2}, Probe: probe, Sim: sim}, false},
		{"availability", JobSpec{Mode: JobAvailability, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}}, Probe: probe, Sim: sim}, false},
		{"availability-dilated", JobSpec{Mode: JobAvailability, Engine: EngineDilated, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}}, Probe: probe, Sim: sim}, false},
		{"drain", JobSpec{Mode: JobDrain, Geometry: geo, DrainQ: 2, Probe: probe, Sim: sim}, false},
		{"estimate-explain", JobSpec{Mode: JobEstimate, Geometry: geo, Load: 0.5,
			Estimate: &EstimateSpec{Src: 1, Dst: 2}, Explain: &ExplainSpec{}, Sim: sim}, true},
		{"latency", JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.5, Probe: probe, Sim: sim}, true},
		{"saturation", JobSpec{Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5}, Probe: probe, Sim: sim}, true},
		{"lifetime", JobSpec{Mode: JobLifetime, Geometry: geo, Lifetime: life, Probe: probe, Sim: sim}, true},
		{"closedloop", JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.3}, Loop: loop,
			Probe: probe, Sim: sim}, true},
		{"closedloop-lifetime", JobSpec{Mode: JobClosedLoopLifetime, Geometry: geo, Lifetime: life,
			Loop: loop, Probe: probe, Sim: sim}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			switch {
			case tc.valid && err != nil:
				t.Fatalf("Validate: %v", err)
			case !tc.valid && (err == nil || !strings.HasPrefix(err.Error(), "edn: probe is not supported")):
				t.Fatalf("Validate: want an edn: probe error, got %v", err)
			}
			if _, err := Run(context.Background(), tc.spec); (err == nil) != tc.valid {
				t.Fatalf("Run: valid=%v, got error %v", tc.valid, err)
			}
		})
	}
}

// TestInstrumentsKeepRandomArbitration pins that a probe and an
// explain section never move a measured number under random
// arbitration either. The arbiter factory hands every engine a job
// builds its per-switch streams from one shared stream, in build order
// (fixed at one shard), so an instrumented run that built engines of
// its own would shift the streams of every later point; shard 0 is the
// only instrumented run.
func TestInstrumentsKeepRandomArbitration(t *testing.T) {
	for _, base := range []JobSpec{
		{Mode: JobSaturation, Loads: []float64{0.5, 0.9}},
		{Mode: JobClosedLoop, Rates: []float64{0.3, 0.7}, Loop: &ClosedLoopSpec{Window: 2, Timeout: 24}},
	} {
		t.Run(base.Mode, func(t *testing.T) {
			spec := base
			spec.Geometry = &GeometrySpec{A: 16, B: 4, C: 4, L: 2}
			spec.Queue = &QueueSpec{Depth: 2, Arbiter: "random"}
			spec.Sim = SimSpec{Cycles: 300, Warmup: 50, Seed: 3, Shards: 1}
			bare, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Probe = &ProbeSpec{SampleEvery: 3, TraceCap: 16, Bins: 4}
			spec.Explain = &ExplainSpec{TopK: 2}
			observed, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range observed.Points {
				observed.Points[i].Observed = nil
			}
			for i := range observed.ClosedLoop {
				observed.ClosedLoop[i].Observed = nil
			}
			if !reflect.DeepEqual(bare.Points, observed.Points) || !reflect.DeepEqual(bare.ClosedLoop, observed.ClosedLoop) {
				t.Fatal("instruments moved a measured number under random arbitration")
			}
		})
	}
}
