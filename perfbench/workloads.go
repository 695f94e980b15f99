package main

import (
	"fmt"
	"math/rand/v2"

	"edn"
)

// A workload is one named stream of JobSpecs. Direct workloads replay a
// fixed round of specs through edn.RunJob, round after round; the
// co-simulation workload draws a fresh spec per request from each
// client's own stream (see cosimStream). Every spec field derives from
// the workload seed, and every spec pins its shard count, because 0
// resolves to GOMAXPROCS and would make the work machine-dependent. No
// spec uses the random arbiter, which is not bit-reproducible across
// shards.
type workload struct {
	name string
	why  string
	// round is the direct workloads' repeating spec list.
	round []edn.JobSpec
	// cosim marks the served workload.
	cosim bool
}

var workloadNames = []string{"sweep-4k", "loop-churn", "cosim-estimate", "explain-hotspot"}

func newWorkload(name string, seed uint64) (*workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x5eed_0f_ed_17))
	switch name {
	case "sweep-4k":
		return &workload{name: name, round: sweepRound(r),
			why: "4,096-port saturation sweeps: the queuesim steady-state cycle and simulate's shard fan-out"}, nil
	case "loop-churn":
		return &workload{name: name, round: loopRound(r),
			why: "closed-loop lifetimes on EDN and dilated fabrics: mask swaps, both engines, the closedloop orchestrator"}, nil
	case "cosim-estimate":
		return &workload{name: name, cosim: true,
			why: "small estimate/latency jobs over serve's stdio protocol: per-job fixed costs, netcache hits and misses"}, nil
	case "explain-hotspot":
		return &workload{name: name, round: explainRound(r),
			why: "moving-hotspot saturation with explain and probe: the observation pass, anatomy and large results"}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// jitter returns x plus a uniform draw in [-d, d].
func jitter(r *rand.Rand, x, d float64) float64 { return x + d*(2*r.Float64()-1) }

func simSeed(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<40) }

// sweepRound: EDN(16,4,4,5), 4,096 ports, depth-4 backpressure, three
// loads spanning 0.5-1.0 per job, uniform and bursty traffic
// alternating, two shards, no probe, no explain.
func sweepRound(r *rand.Rand) []edn.JobSpec {
	var round []edn.JobSpec
	for k := 0; k < 4; k++ {
		t := &edn.TrafficSpec{Kind: "uniform"}
		if k%2 == 1 {
			t = &edn.TrafficSpec{Kind: "bursty", MeanBurst: jitter(r, 8, 0.5)}
		}
		round = append(round, edn.JobSpec{
			Mode:     edn.JobSaturation,
			Geometry: &edn.GeometrySpec{A: 16, B: 4, C: 4, L: 5},
			Loads:    []float64{jitter(r, 0.55, 0.01), jitter(r, 0.75, 0.01), 1},
			Traffic:  t,
			Queue:    &edn.QueueSpec{Depth: 4, Policy: "backpressure"},
			Sim:      edn.SimSpec{Cycles: 240, Warmup: 40, Seed: simSeed(r), Shards: 2},
		})
	}
	return round
}

// loopEDNEpochs and loopDilatedEpochs size the two halves of a
// loop-churn round to similar wall time (the dilated counterpart's
// cycle costs about three EDN cycles), so the job-time median does not
// fall in the gap between two clusters.
const (
	loopEDNEpochs     = 25
	loopDilatedEpochs = 8
)

// loopRound: closedloop-lifetime on EDN(64,16,4,2) and on its dilated
// counterpart, alternating; depth-4 drop, backoff retry, wire churn at
// MTBF 32 / MTTR 8 epochs, two shards. Warmup stays 0 so the reported
// ledger (a churned-lifetime delta whose gauges are end values) must
// balance exactly.
func loopRound(r *rand.Rand) []edn.JobSpec {
	var round []edn.JobSpec
	for k := 0; k < 4; k++ {
		engine, epochs := edn.EngineEDN, loopEDNEpochs
		if k%2 == 1 {
			engine, epochs = edn.EngineDilated, loopDilatedEpochs
		}
		round = append(round, edn.JobSpec{
			Mode:     edn.JobClosedLoopLifetime,
			Engine:   engine,
			Geometry: &edn.GeometrySpec{A: 64, B: 16, C: 4, L: 2},
			Queue:    &edn.QueueSpec{Depth: 4, Policy: "drop"},
			Loop:     &edn.ClosedLoopSpec{Window: 4, Timeout: 48, Retry: "backoff", BackoffBase: 2, BackoffCap: 32},
			Lifetime: &edn.LifetimeSpec{
				Epochs: epochs, EpochCycles: 100, Load: jitter(r, 0.3, 0.005),
				Mode: "wires", MTBF: 32, MTTR: 8,
			},
			Sim: edn.SimSpec{Seed: simSeed(r), Shards: 2},
		})
	}
	return round
}

// explainRound: EDN(64,16,4,2) saturation under a moving hot spot with
// an explain section and a sampled probe, two shards.
func explainRound(r *rand.Rand) []edn.JobSpec {
	var round []edn.JobSpec
	for k := 0; k < 4; k++ {
		round = append(round, edn.JobSpec{
			Mode:     edn.JobSaturation,
			Geometry: &edn.GeometrySpec{A: 64, B: 16, C: 4, L: 2},
			Loads:    []float64{jitter(r, 0.8, 0.01)},
			Traffic: &edn.TrafficSpec{Kind: "moving-hotspot", HotFraction: jitter(r, 0.2, 0.005),
				Hot: r.IntN(1024), Period: 64, Stride: 1 + 2*r.IntN(64)},
			Queue:   &edn.QueueSpec{Depth: 4, Policy: "backpressure"},
			Probe:   &edn.ProbeSpec{SampleEvery: 16, Seed: simSeed(r)},
			Explain: &edn.ExplainSpec{TopK: 8},
			Sim:     edn.SimSpec{Cycles: 600, Warmup: 50, Seed: simSeed(r), Shards: 2},
		})
	}
	return round
}

// cosimGeometries are the co-simulation workload's fabrics: four small
// ones (16-128 ports) and, rarely, a 1,024-port one.
var cosimGeometries = []edn.GeometrySpec{
	{A: 4, B: 2, C: 2, L: 3},   // 16 ports
	{A: 8, B: 4, C: 2, L: 2},   // 32 ports
	{A: 16, B: 4, C: 4, L: 2},  // 64 ports
	{A: 32, B: 4, C: 4, L: 2},  // 128 ports
	{A: 64, B: 16, C: 4, L: 2}, // 1,024 ports
}

// cosimRepeatSeeds is the small fault-sample seed set most requests
// reuse; setup compiles their masks, so these requests hit netcache.
var cosimRepeatSeeds = []uint64{1, 2, 3}

const cosimFaultFraction = 0.02

// cosimStream is one co-simulation client's request generator.
type cosimStream struct {
	r      *rand.Rand
	client int
	n      int
}

func newCosimStream(seed uint64, client int) *cosimStream {
	return &cosimStream{r: rand.New(rand.NewPCG(seed, uint64(0xc0_5100+client))), client: client}
}

// next returns the client's next spec and whether it carries a fresh
// fault-sample seed. The mix follows a fixed schedule, so every seed
// runs the same proportions: one request in four has a fresh seed, one
// in forty runs on the 1,024-port fabric (alternately fresh and
// repeat-seed), one in five is a small latency job instead of an
// estimate, and the small fabrics take turns. The seed draws
// everything else: endpoints, load, and the simulation seed.
func (s *cosimStream) next() (edn.JobSpec, bool) {
	r, n := s.r, s.n
	s.n++
	g := cosimGeometries[(n+n/4)%4]
	if n%80 == 1 || n%80 == 42 {
		g = cosimGeometries[4]
	}
	cfg, _ := g.Compile()
	fresh := n%4 == 1
	fseed := cosimRepeatSeeds[r.IntN(len(cosimRepeatSeeds))]
	if fresh {
		// Distinct per client and request, and far from the repeat set.
		fseed = 1_000_000*uint64(s.client+1) + uint64(n)
	}
	spec := edn.JobSpec{
		Mode:     edn.JobEstimate,
		Geometry: &g,
		Load:     jitter(r, 0.6, 0.1),
		Estimate: &edn.EstimateSpec{Src: r.IntN(cfg.Inputs()), Dst: r.IntN(cfg.Outputs())},
		Queue:    &edn.QueueSpec{Depth: 4, Policy: "backpressure"},
		Faults:   &edn.FaultsSpec{Mode: "wires", Fraction: cosimFaultFraction, Seed: fseed},
		Sim:      edn.SimSpec{Cycles: 400, Warmup: 50, Seed: simSeed(r), Shards: 1},
	}
	if n%5 == 3 {
		spec.Mode = edn.JobLatency
		spec.Estimate = nil
		spec.Sim.Cycles = 200
	}
	if g == cosimGeometries[4] {
		// A short budget keeps the big fabric's jobs a tail, not the bulk
		// of the work: their speed swings more with the host's memory
		// traffic than the small fabrics' do.
		spec.Sim.Cycles, spec.Sim.Warmup = 100, 20
	}
	return spec, fresh
}

// wsc is a job's simulated work in wire-stage-cycles: the fabric's
// WireCount() times every cycle any engine instance of the job ran. This
// is the benchmark's accounting rule; it is a pure function of the spec
// (plus, for estimates, whether the fault sample left anything to
// measure), so an engine change cannot move the denominator.
//
//   - latency, saturation, estimate: per measured point, every shard runs
//     warmup plus its share of the cycle budget (the shard count is
//     clamped to the budget); a probe or explain section adds one
//     sequential observation pass of warmup plus the full budget.
//   - closedloop-lifetime: every shard runs warmup plus
//     epochs x epoch_cycles on two fabrics (requests and replies).
func wsc(spec edn.JobSpec, res *edn.JobResult) (int64, error) {
	wires, err := wireCount(spec)
	if err != nil {
		return 0, err
	}
	cycles := int64(spec.Sim.Cycles)
	if cycles <= 0 {
		cycles = 1000
	}
	warm := int64(spec.Sim.Warmup)
	shards := int64(spec.Sim.Shards)
	if shards < 1 {
		return 0, fmt.Errorf("spec must pin shards")
	}
	switch spec.Mode {
	case edn.JobLatency, edn.JobSaturation, edn.JobEstimate:
		points := int64(1)
		if spec.Mode == edn.JobSaturation {
			points = int64(len(spec.Loads))
		}
		if spec.Mode == edn.JobEstimate && (res == nil || res.Estimate == nil || res.Estimate.Cycles == 0) {
			return 0, nil // undeliverable: nothing simulated
		}
		perPoint := cycles + min(shards, cycles)*warm
		if spec.Probe != nil || spec.Explain != nil {
			perPoint += warm + cycles
		}
		return wires * points * perPoint, nil
	case edn.JobClosedLoopLifetime:
		ec := int64(spec.Lifetime.EpochCycles)
		if ec <= 0 {
			ec = 200
		}
		return wires * 2 * shards * (warm + int64(spec.Lifetime.Epochs)*ec), nil
	}
	return 0, fmt.Errorf("no wsc rule for mode %q", spec.Mode)
}

// wireCount is the WireCount() of the fabric the spec drives.
func wireCount(spec edn.JobSpec) (int64, error) {
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return 0, err
	}
	if spec.Engine == edn.EngineDilated {
		d, err := edn.DilatedCounterpart(cfg)
		if err != nil {
			return 0, err
		}
		return d.WireCount(), nil
	}
	return cfg.WireCount(), nil
}

// warmupSpec shrinks a spec to a short job of the same shape, for
// set-up: it touches every code path and cache entry the full job will,
// at a fraction of the work.
func warmupSpec(s edn.JobSpec) edn.JobSpec {
	w := s
	if len(w.Loads) > 1 {
		w.Loads = w.Loads[:1]
	}
	if w.Sim.Cycles > 64 {
		w.Sim.Cycles = 64
	}
	if w.Lifetime != nil {
		lt := *w.Lifetime
		lt.Epochs = 2
		w.Lifetime = &lt
	}
	return w
}
