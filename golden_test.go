package edn

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// goldenDigestFile holds one line per golden spec: the spec's name,
// the SHA-256 of its JobResult JSON and, for explained specs, the
// SHA-256 of its anatomy report JSON ("-" otherwise).
const goldenDigestFile = "testdata/golden_jobs.sha256"

// goldenSpecs enumerates one JobSpec per valid (mode, engine) pair —
// plus the static-fault, probe and explain variants — at queue
// depths 0, 1 and 4 under both policies. Shards are pinned (2, unless
// a base spec names its own count) and the
// arbiters are the two replayable ones, so every digest is a pure
// function of the spec on any host.
func goldenSpecs() map[string]JobSpec {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim := SimSpec{Cycles: 160, Warmup: 20, Seed: 5, Shards: 2}
	probe := &ProbeSpec{SampleEvery: 3, TraceCap: 32, Bins: 4, Seed: 2}
	explain := &ExplainSpec{TopK: 3}
	life := &LifetimeSpec{Epochs: 3, EpochCycles: 40, MTBF: 12, MTTR: 3}
	loopLife := &LifetimeSpec{Epochs: 3, EpochCycles: 40, MTBF: 12, MTTR: 3, Load: 0.4}
	loop := &ClosedLoopSpec{Window: 2, Timeout: 24, MaxAttempts: 3, Retry: "backoff", SLAZero: 8, SLADeadline: 30}
	hot := &TrafficSpec{Kind: "hotspot", HotFraction: 0.3, Hot: 3}

	base := map[string]JobSpec{
		"latency-edn-faults": {Mode: JobLatency, Geometry: geo, Load: 0.8,
			Faults: &FaultsSpec{Mode: "mixed", Fraction: 0.1, Seed: 3}},
		"latency-dilated-faults": {Mode: JobLatency, Engine: EngineDilated, Geometry: geo, Load: 0.8,
			Faults: &FaultsSpec{Fraction: 0.1, Seed: 3}},
		"latency-edn-explain": {Mode: JobLatency, Geometry: geo, Load: 0.9,
			Traffic: &TrafficSpec{Kind: "bursty", MeanBurst: 3}, Explain: explain},
		"saturation-edn": {Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5, 0.9},
			Traffic: hot, Probe: probe, Explain: explain},
		"saturation-dilated": {Mode: JobSaturation, Engine: EngineDilated, Geometry: geo,
			Loads:   []float64{0.5, 0.9},
			Traffic: &TrafficSpec{Kind: "moving-hotspot", HotFraction: 0.3, Period: 40, Stride: 3},
			Probe:   probe, Explain: explain},
		"drain-edn":     {Mode: JobDrain, Geometry: geo, DrainQ: 2},
		"drain-dilated": {Mode: JobDrain, Engine: EngineDilated, Geometry: geo, DrainQ: 2},
		"availability-edn": {Mode: JobAvailability, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0, 0.1, 0.3}, Mode: "mixed", Load: 0.9, WithExpected: true}},
		"availability-dilated": {Mode: JobAvailability, Engine: EngineDilated, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0, 0.1, 0.3}, WithExpected: true}},
		"lifetime-edn":     {Mode: JobLifetime, Geometry: geo, Lifetime: life, Probe: probe},
		"lifetime-dilated": {Mode: JobLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life, Probe: probe},
		"closedloop-edn": {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.2, 0.5},
			Loop: loop, Probe: probe, Explain: explain},
		"closedloop-dilated": {Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo,
			Rates: []float64{0.2, 0.5}, Loop: loop, Probe: probe, Explain: explain},
		"closedloop-lifetime-edn": {Mode: JobClosedLoopLifetime, Geometry: geo,
			Lifetime: loopLife, Loop: loop, Probe: probe},
		"closedloop-lifetime-dilated": {Mode: JobClosedLoopLifetime, Engine: EngineDilated, Geometry: geo,
			Lifetime: loopLife, Loop: loop, Probe: probe},
		"estimate-edn": {Mode: JobEstimate, Geometry: geo, Load: 0.7,
			Estimate: &EstimateSpec{Src: 1, Dst: 5}},
		"estimate-edn-faults": {Mode: JobEstimate, Geometry: geo, Load: 0.7,
			Estimate: &EstimateSpec{Src: 2, Dst: 6},
			Faults:   &FaultsSpec{Fraction: 0.05, Seed: 9}, Explain: explain},
		// An observed point at one shard and at three: the one run
		// that carries the instruments is the measured run itself at
		// one shard, and outlives its measured window at three.
		"latency-edn-observed-1shard": {Mode: JobLatency, Geometry: geo, Load: 0.9,
			Probe: probe, Explain: explain, Sim: SimSpec{Shards: 1}},
		"closedloop-edn-observed-3shards": {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.5},
			Loop: loop, Probe: probe, Explain: explain, Sim: SimSpec{Shards: 3}},
	}
	specs := make(map[string]JobSpec)
	for name, spec := range base {
		for _, depth := range []int{0, 1, 4} {
			for _, policy := range []string{"backpressure", "drop"} {
				if spec.Mode == JobDrain && policy == "drop" {
					continue // a drain needs the lossless policy
				}
				arb := "priority"
				if depth == 1 {
					arb = "roundrobin"
				}
				s := spec
				s.Queue = &QueueSpec{Depth: depth, Policy: policy, Arbiter: arb}
				s.Sim = sim
				if spec.Sim.Shards != 0 {
					s.Sim.Shards = spec.Sim.Shards
				}
				specs[fmt.Sprintf("%s/d%d/%s", name, depth, policy)] = s
			}
		}
	}
	return specs
}

// TestGoldenJobDigests pins every golden spec's JobResult JSON and
// anatomy report to digests recorded before the EDN/dilated harnesses
// were folded onto one network value. TestRunMatchesFacade compares two
// code paths of the same tree; only this test catches both drifting
// together. A spec with a probe or an explain section observes on
// shard 0 while its other shards run beside it, so it must match its
// digests under GOMAXPROCS 1, 2 and 4: the schedule never reaches the
// bytes.
// On a mismatch it prints the complete new digest file.
func TestGoldenJobDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64; other compilers may fuse multiply-adds")
	}
	want := readGoldenDigests(t)
	specs := goldenSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	host := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(host)

	var lines []string
	var bad []string
	for _, name := range names {
		procs := []int{host}
		if spec := specs[name]; spec.Probe != nil || spec.Explain != nil {
			procs = []int{1, 2, 4}
		}
		for i, p := range procs {
			runtime.GOMAXPROCS(p)
			line := goldenLine(t, name, specs[name])
			if i == 0 {
				lines = append(lines, line)
			}
			if want[name] != line {
				bad = append(bad, fmt.Sprintf("%s (GOMAXPROCS %d)", name, p))
			}
		}
	}
	if len(want) != len(lines) {
		t.Errorf("digest file has %d entries, the golden grid %d", len(want), len(lines))
	}
	if len(bad) > 0 || len(want) != len(lines) {
		t.Errorf("%d golden digests differ: %s", len(bad), strings.Join(bad, ", "))
		t.Logf("new digests:\n%s", strings.Join(lines, "\n"))
	}
}

// goldenLine runs spec and returns its digest-file line.
func goldenLine(t *testing.T, name string, spec JobSpec) string {
	t.Helper()
	var report []byte
	res, err := RunJob(context.Background(), spec, RunOptions{
		OnExplain: func(r *AnatomyReport) {
			var merr error
			if report, merr = json.Marshal(r); merr != nil {
				t.Errorf("%s: anatomy report does not marshal: %v", name, merr)
			}
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: JobResult does not marshal: %v", name, err)
	}
	anat := "-"
	if report != nil {
		anat = digest(report)
	}
	return fmt.Sprintf("%s %s %s", name, digest(blob), anat)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readGoldenDigests maps each spec name to its full recorded line.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		out[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
