package simulate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func observeProbeOptions() *probe.Options {
	return &probe.Options{SampleEvery: 4, TraceCap: 256, Bins: 8}
}

// sameTraces asserts two reports retained the identical trace set —
// same IDs, endpoints and hop-for-hop flight records.
func sameTraces(t *testing.T, a, b *probe.Report) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("missing report: %v vs %v", a, b)
	}
	if a.Sampled != b.Sampled {
		t.Fatalf("sampled diverged: %d vs %d", a.Sampled, b.Sampled)
	}
	if !reflect.DeepEqual(a.Traces, b.Traces) {
		t.Fatalf("trace sets diverged: %d vs %d traces", len(a.Traces), len(b.Traces))
	}
}

// TestObservedSweepShardInvariant pins the shard-merge determinism
// contract: because rate sweeps collect their report from shard 0 run
// through the full cycle budget (seeded by the first root draw, which
// does not depend on the shard split), the same Options produce the
// identical trace set whether the measured sweep ran on 1 shard or 3 —
// and the measured results stay bit-identical to an unprobed sweep.
func TestObservedSweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.8}
	qopts := queuesim.Options{Depth: 4}
	run := func(shards int, po *probe.Options) LatencyResult {
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Probe: po}
		res, err := SaturationSweep(EDN{Config: cfg, Queue: qopts}, loads, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}

	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	// Attaching a probe must not move any measured number.
	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	// And the observation itself must not depend on the shard count.
	sameTraces(t, probed1.Observed, probed3.Observed)
}

// TestObservedDilatedSweepShardInvariant pins the same contract for the
// dilated engine: its sweeps put the probe on shard 0 the same way, so
// traces and heat must not depend on the shard split, and
// a probed sweep must not move the measured numbers.
func TestObservedDilatedSweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.8}
	dopts := dilatedsim.Options{Depth: 4}
	run := func(shards int, po *probe.Options) LatencyResult {
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Probe: po}
		res, err := SaturationSweep(Dilated{Config: dcfg, Queue: dopts}, loads, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}

	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed dilated sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	sameTraces(t, probed1.Observed, probed3.Observed)
	if probed1.Observed.Heat == nil || probed3.Observed.Heat == nil {
		t.Fatalf("missing heat surfaces")
	}
	if !reflect.DeepEqual(probed1.Observed.Heat, probed3.Observed.Heat) {
		t.Fatalf("dilated heat surfaces diverged across shard counts")
	}
}

func TestObservedClosedLoopShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo := closedloop.Options{
		Window: 4, Timeout: 16, MaxAttempts: 4,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 8,
	}
	qopts := queuesim.Options{Depth: 1, Policy: queuesim.Drop}
	run := func(shards int, po *probe.Options) ClosedLoopResult {
		opts := Options{Cycles: 1000, Warmup: 100, Seed: 9, Probe: po}
		res, err := MeasureClosedLoop(EDN{Config: cfg, Queue: qopts}, []float64{0.4}, lo, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	sameTraces(t, probed1.Observed, probed3.Observed)
}

// TestObservedLifetimeShardInvariant: lifetime sweeps trace only shard
// 0 (whose lifecycle/traffic seed pair is shard-count independent), so
// the collected trace set is identical across shard counts even though
// every shard contributes heat.
func TestObservedLifetimeShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lopts := LifetimeOptions{
		Epochs:      6,
		EpochCycles: 100,
		Load:        0.9,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 20, MTTR: 5},
	}
	qopts := queuesim.Options{Depth: 4, Policy: queuesim.Drop}
	run := func(shards int, po *probe.Options) LifetimeResult {
		opts := Options{Warmup: 100, Seed: 9, Probe: po}
		res, err := LifetimeSweep(EDN{Config: cfg, Queue: qopts}, lopts, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probed1 := run(1, observeProbeOptions())
	probed2 := run(2, observeProbeOptions())
	sameTraces(t, probed1.Observed, probed2.Observed)

	// Heat pools across shards: its per-epoch sample counts must scale
	// with the shard count while the bin layout stays epoch-aligned.
	h1, h2 := probed1.Observed.Heat, probed2.Observed.Heat
	if h1 == nil || h2 == nil {
		t.Fatalf("missing heat surfaces")
	}
	if h1.Bins != lopts.Epochs || h1.BinCycles != lopts.EpochCycles {
		t.Fatalf("heat bins %dx%d not epoch-aligned", h1.Bins, h1.BinCycles)
	}
	if n1, n2 := h1.Series[0][0].N(0), h2.Series[0][0].N(0); n2 != 2*n1 || n1 != lopts.EpochCycles {
		t.Fatalf("heat sample counts: shard1 %d, shard2 %d (want %d and double)", n1, n2, lopts.EpochCycles)
	}

	// A probed lifetime run must not move the measured series.
	// (NaN half-lives compare unequal under DeepEqual; normalize when
	// both runs agree the metric is undefined.)
	plain1 := run(1, nil)
	stripped := probed1
	stripped.Observed = nil
	if math.IsNaN(plain1.RecoveryHalfLife) && math.IsNaN(stripped.RecoveryHalfLife) {
		plain1.RecoveryHalfLife, stripped.RecoveryHalfLife = 0, 0
	}
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed lifetime changed measured results")
	}
}

// observationPass is the observation pass sharded points used to run
// beside their shards, kept as the oracle of shard 0's instruments: one
// instrumented run of the full budget under the point's first shard
// seed, pointSeeds(seed, index, shards)[0]. It returns the JSON of the
// probe report and of the anatomy report.
func observationPass(t *testing.T, opts Options, seed uint64, run func(Options, uint64) (*probe.Report, error)) (obs, anat []byte) {
	t.Helper()
	var rep *anatomy.Report
	opts.OnAnatomy = func(r *anatomy.Report) { rep = r }
	pr, err := run(opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, pr), mustJSON(t, rep)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardZeroIsTheObservationPass pins that a sharded point's
// observation is the observation pass it replaced, byte for byte:
// shard 0 carries the instruments past its measured window to the full
// budget, and its probe and anatomy reports equal one instrumented
// full-budget run under the point's first shard seed, for saturation
// and closed-loop points at 1, 2 and 3 shards, on an EDN and a dilated
// delta, at depths 0 and 2.
func TestShardZeroIsTheObservationPass(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo := closedloop.Options{Window: 3, Timeout: 20, MaxAttempts: 3,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 8}
	loads := []float64{0.5, 0.9}
	for _, q := range []queuesim.Options{{Depth: 0, Policy: queuesim.Drop}, {Depth: 2}} {
		for _, net := range []Net{EDN{Config: cfg, Queue: q}, Dilated{Config: dcfg, Queue: q}} {
			for _, shards := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%v/depth%d/%dshards", net, q.Depth, shards), func(t *testing.T) {
					var anats [][]byte
					opts := Options{Cycles: 301, Warmup: 40, Seed: 7,
						Probe: observeProbeOptions(), Anatomy: testAnatomyOptions(),
						OnAnatomy: func(r *anatomy.Report) { anats = append(anats, mustJSON(t, r)) }}
					sat, err := SaturationSweep(net, loads, nil, opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					loop, err := MeasureClosedLoop(net, loads, lo, opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					if len(anats) != 2*len(loads) {
						t.Fatalf("%d anatomy reports for %d points", len(anats), 2*len(loads))
					}
					for i, load := range loads {
						seed := pointSeeds(opts.Seed, i, shards)[0]
						obs, anat := observationPass(t, opts, seed, func(o Options, seed uint64) (*probe.Report, error) {
							r, err := MeasureLatency(net, UniformLoad(load, xrand.New(seed)), o)
							return r.Observed, err
						})
						if got := mustJSON(t, sat[i].Observed); !bytes.Equal(got, obs) {
							t.Errorf("saturation point %d: observed report differs from the pass's", i)
						}
						if !bytes.Equal(anats[i], anat) {
							t.Errorf("saturation point %d: anatomy report differs from the pass's", i)
						}
						obs, anat = observationPass(t, opts, seed, func(o Options, seed uint64) (*probe.Report, error) {
							l := lo
							l.Rate = load
							p, err := runClosedLoopShard(net, l, seed, o, o.Cycles)
							return p.rep, err
						})
						if got := mustJSON(t, loop[i].Observed); !bytes.Equal(got, obs) {
							t.Errorf("closed-loop point %d: observed report differs from the pass's", i)
						}
						if !bytes.Equal(anats[len(loads)+i], anat) {
							t.Errorf("closed-loop point %d: anatomy report differs from the pass's", i)
						}
					}
				})
			}
		}
	}
}

// countingLoad counts the request vectors its patterns draw.
type countingLoad struct {
	traffic.Pattern
	n *atomic.Int64
}

func (c countingLoad) GenerateInto(dest []int, outputs int) {
	c.n.Add(1)
	c.Pattern.GenerateInto(dest, outputs)
}

// TestObservedPointRunsItsBudgetOnce pins that an observed point adds
// no run of its own: at one shard it draws exactly Warmup + Cycles
// request vectors, and at two shard 0 draws Warmup + Cycles (its
// window, then its continuation for the instruments) and shard 1
// Warmup plus its share.
func TestObservedPointRunsItsBudgetOnce(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	src := func(load float64, rng *xrand.Rand) traffic.Pattern {
		return countingLoad{UniformLoad(load, rng), &n}
	}
	opts := Options{Cycles: 300, Warmup: 40, Seed: 3, Probe: observeProbeOptions(), Anatomy: testAnatomyOptions()}
	net := EDN{Config: cfg, Queue: queuesim.Options{Depth: 2}}
	for _, tc := range []struct {
		shards int
		want   int64
	}{{1, 40 + 300}, {2, (40 + 300) + (40 + 150)}} {
		n.Store(0)
		if _, err := SaturationPoint(net, 0.8, 0, src, opts, tc.shards); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != tc.want {
			t.Errorf("%d shards: %d request vectors drawn, want %d", tc.shards, got, tc.want)
		}
	}
}
