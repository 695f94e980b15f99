// Package edn is a library-quality reproduction of "Expanded Delta
// Networks for Very Large Parallel Computers" (Alleyne & Scherson, UC
// Irvine ICS TR 92-02 / ISCA 1992).
//
// An Expanded Delta Network EDN(a,b,c,l) is a multistage interconnection
// network built from hyperbar switches H(a -> b x c): a-input switches
// whose b output "buckets" are groups of c interchangeable wires. Routing
// is digit-controlled exactly as in Patel's delta networks — no global
// controller — but every source/destination pair enjoys c^l distinct
// paths, which absorbs internal contention. The crossbar (EDN(n,n,1,1))
// and the classical delta network (EDN(a,b,1,l)) are the degenerate
// corners of the family; the MasPar MP-1 router is RA-EDN(16,4,2,16),
// logically EDN(64,16,4,2).
//
// The package exposes four layers:
//
//   - Structure: Config describes a network (stages, switches, wiring,
//     Equation 2/3 costs); Tag, TraceRoute and RetirementOrder implement
//     digit-retirement routing (Lemma 1, Corollary 2).
//   - Closed forms: PA, PAPermutation, CrossbarPA, Resubmission and
//     ExpectedPermutationTime evaluate the paper's Equations 4-11 and the
//     Section 5.1 model.
//   - Simulation: Network routes cycle-level request batches; the
//     Measure* helpers, RouteMultipass, SimulateMIMD and
//     RoutePermutation drive Monte-Carlo experiments that cross-check
//     every closed form. All of them run the queueing engine's depth-0
//     corner (below) directly: Network is a view of its Drop sweep that
//     reads each input's verdict, the PA harnesses read its per-cycle
//     counters, and RouteMultipass resubmits retained requests on its
//     Backpressure sweep. Interstage gamma permutations are precomputed
//     as flat lookup tables, and RouteCycleInto plus each Pattern's
//     GenerateInto (one traffic step, shared by every measurement loop,
//     refills the request vector in place) let steady-state
//     measurement loops run with zero allocations per cycle (see
//     BenchmarkRouteCycleInto).
//   - Queueing: QueueNetwork is the buffered packet-level simulator the
//     paper's memoryless model cannot express — per-wire FIFOs of
//     configurable depth at every stage input, head-of-line arbitration,
//     one hop per cycle, and per-packet injection timestamps feeding
//     latency Histograms. It is the repository's one packet engine: a
//     per-stage fabric descriptor (switches, buckets of interchangeable
//     wires, interstage tables, a retire stage onto the terminals) runs
//     the EDN and its dilated counterpart alike, and depth 0 is a
//     within-cycle wave sweep, the one router of every harness.
//     MeasureLatency and SaturationSweep produce throughput and
//     P50/P95/P99 latency-vs-load curves (with run-level
//     parallel sharding) for any Net — an EDNNet or a DilatedNet, each
//     a geometry plus its queue options — DrainPermutations measures
//     the Section 5.1 permutation time against
//     ExpectedPermutationTime, and the bursty
//     MarkovOnOff / MovingHotSpot sources supply the temporally
//     correlated load that makes queues interesting. The depth-1 Drop
//     configuration is pinned bit-for-bit to the unbuffered Network;
//     every FIFO of a network lives in one store with an occupancy
//     bitmap, each stage's advance visits only the FIFOs that hold a
//     packet on a live wire, and the advance loop is allocation-free
//     for bounded depths (BenchmarkQueueCycle). See edn latency
//     (cmd/edn) for the CLI.
//   - Fault tolerance and lifecycle: one fault model over the engine's
//     per-stage fabric descriptor. FaultSet/CompileFaults turn dead
//     switches, wires and ports into per-stage availability masks the
//     engine routes around (NewNetworkWithFaults, QueueOptions.Faults),
//     on the EDN and the dilated delta alike; AvailabilitySweep
//     measures frozen degradation curves, and the lifecycle layer makes
//     the masks a function of time — a LifecycleSpec's renewal process
//     over a component population drives running engines through
//     UpdateFaults (in-place, allocation-free mask swaps) and
//     LifetimeSweep records bandwidth/reachability/latency per epoch
//     with lifetime aggregates. See edn faults and edn lifetime.
//   - Measured dilated counterpart: DilatedQueueNetwork runs the
//     d-dilated delta networks the introduction compares EDNs against
//     on the same queueing engine, built from the dilated fabric's
//     descriptor (buckets of d sub-wires, the output ports as the retire
//     stage); a sub-wire is an output port of that descriptor (a
//     FaultPortID in a FaultSet), so the one fault vocabulary, sampler,
//     flood and renewal churn serve it, DilatedMasks are FaultMasks,
//     and ExpectedDegradedBandwidth, the per-wire analytic model, walks
//     its descriptor as it walks the EDN's; at d=1 it is bit-for-bit
//     the plain-delta QueueNetwork.
//     Every packet-level measurement takes the counterpart as a
//     DilatedNet through the same harness the EDN runs on, so the same
//     Options drive both networks under identical replayed traffic —
//     latency tails, degradation curves and lifetime churn included
//     (edn faults -dilated adds the per-wire model on a sampled
//     sub-wire set as its cheap analytic overlay) — and every result
//     type labels either network: Config or Dilated, read through its
//     Network method. A dilated delta's degradation and lifetime
//     results carry the census of its one failing population, the
//     sub-wires, and a sweep that asks it for another population, a
//     blast or a repair window is an error.
//   - Closed-loop workloads: NewClosedLoop layers a request/response
//     memory workload over two instances of either packet engine —
//     requests route forward, memory ports service them, replies route
//     back — with per-source outstanding-request windows, timeout
//     detection, immediate or capped-exponential-backoff retries,
//     give-up-after-N, and a fault-fed avoidance list of unreachable
//     memory ports. A request-level conservation ledger (Issued ==
//     Completed + GivenUp + InFlight + RetryWaiting) is asserted on top
//     of both fabrics' packet ledgers. MeasureClosedLoop sweeps demand
//     over either network (run on the EDN and on its dilated
//     counterpart under the same Options, the two sweeps offer
//     bit-equal request counts), and ClosedLoopLifetimeSweep runs the
//     workload through churn with an SLA response-deadline curve that
//     prices degradation as a cost of downtime; the steady-state
//     advance is allocation-free (BenchmarkClosedLoopCycle). Batch-repair
//     maintenance windows (LifecycleSpec.RepairWindow) model repairs
//     that only land on epoch boundaries. See edn loop.
//   - Observability: a flight-recorder Probe attaches to any of the
//     four engines (SetProbe) and records three things without moving
//     a single measured number — sampled packet traces (every ~Nth
//     accepted injection gets a per-hop event log in a preallocated
//     ring: inject/traverse/block/park/drop/strand/deliver for the
//     packet engines, issue/timeout/retry/complete/giveup with attempt
//     numbers for the closed-loop layer), per-stage per-cycle heat
//     surfaces (queue occupancy, blocked and parked packets, folded
//     into time bins), and an exportable metrics registry (Prometheus
//     text and JSON-lines). With no probe attached every hook is one
//     nil check and the hot loops stay at 0 allocs/op
//     (BenchmarkProbeOff, CI-gated); with a probe attached the results
//     are bit-identical to an unprobed run. Sharded saturation and
//     closed-loop points run their shards bare and collect the
//     observation from one observation pass, a task of the point's
//     worker pool run beside the shards under the point's first shard
//     seed at the full cycle budget, which ignores the shard split, so
//     the same Options yield the same trace set at any shard count and
//     GOMAXPROCS;
//     lifetime sweeps instead keep a heat probe on every shard, one bin
//     per epoch, and sample traces on shard 0 only. See edn trace and
//     the -trace/-heatmap flags on edn latency, lifetime and loop.
//   - Jobs and service: JobSpec is the single serializable description
//     of any experiment the facade can run — every mode (latency,
//     saturation, drain, availability, lifetime, closed-loop,
//     closed-loop lifetime, estimate) on either engine, with queueing,
//     faults, lifecycle, probe and sharding sections — and Run executes
//     one bit-for-bit against the facade functions; an EDN-vs-dilated
//     comparison is two jobs. Every sweep CLI emits its JobSpec with
//     -dump-spec and replays any saved spec with -spec, so a
//     command-line run, a JSON file and a daemon request are the same
//     experiment. NewGeometryCache is a byte-budgeted LRU over routing
//     tables and compiled fault masks (hits return the identical
//     immutable artifacts, so cached results are bit-equal to
//     uncached); internal/serve and edn serve wrap both in a
//     long-lived daemon — a JSON-line protocol over stdio and an HTTP
//     API that schedule jobs across a bounded worker pool, stream
//     per-point events as sweeps progress, and answer one-shot
//     estimate requests (geometry + src/dst + load -> latency
//     quantiles) in the co-simulation role BookSim2 plays for
//     system-level simulators. See EXPERIMENTS.md for the protocol
//     grammar and measured cold-vs-warm request latencies.
//   - Performance observatory: every daemon job records a
//     deterministic span tree (SpanCollector) — queue wait, spec
//     validation, table builds with their cache verdicts, per-shard
//     execution, merge, serialization — delivered beside (never
//     inside) the result event, aggregated per stage on /v1/stats, and
//     summarized as a structured JSON completion log on stderr
//     (edn serve -log). The tree's shape is a pure function of the
//     JobSpec; like the Probe, tracing is observation-only and a
//     traced run's result is byte-identical to an untraced one
//     (property-tested). /metrics renders the job ledger behind
//     /v1/stats — queue depth, busy workers, jobs by
//     mode/engine/outcome and a job-duration histogram, one count that
//     balances at every scrape — beside geometry-cache
//     hit/miss/eviction/byte counters and Go runtime stats, and
//     edn serve -pprof mounts net/http/pprof on the same mux. Off the
//     daemon path, internal/benchwatch and edn bench form the ns/op
//     regression harness: they parse go test -bench output into the
//     BENCH_N.json trajectory schema, diff runs against committed
//     snapshots, and enforce BENCH_BUDGETS.json
//     per-benchmark ceilings in CI — over budget is a warning inside
//     the shared-runner noise band, past 2x the budget (or a budgeted
//     benchmark disappearing) fails the build.
//   - Latency anatomy: where the Probe records what happened, the
//     anatomy layer explains where the time went. An AnatomyCollector
//     attaches to any of the four engines (SetAnatomy) and decomposes
//     every closed packet's life — delivered, dropped or stranded —
//     into wait (queued behind another packet), block (at the head but
//     unable to advance) and service (cycles that moved it), an exact
//     partition of its latency: wait + block + service == closed −
//     inject for the buffered engines (+1 at depth 0, whose latency
//     convention counts the injection cycle — property-tested across
//     every depth x policy x fault-churn combination). Each blocked
//     cycle is charged to the switch that caused it (blame ledgers,
//     per-stage dwell histograms, per-source/per-destination flows),
//     and a congestion-tree detector follows blocked-by edges
//     downstream to name the root switch of each backpressure tree
//     with its depth, spread and lifetime — tomography for questions
//     like "which hot output is really responsible for this tail".
//     Closed-loop requests get a five-way split instead: client-queue,
//     retry-wait, forward-fabric, service, reply-fabric. Reports are
//     shard-mergeable and ride the same observation pass as the probe,
//     beside the shards, so explaining a run never moves a measured
//     number or depends on the shard count or GOMAXPROCS
//     (byte-identity property-tested, fault churn included). A
//     detached collector costs one nil check per hook
//     (BenchmarkAnatomyOff, 0 allocs/op, CI-gated); an attached one
//     costs a constant amount of work per engine event, never per
//     queued packet, and allocates nothing once warm (BenchmarkObserverOn,
//     probe attached too, 0 allocs/op, CI-gated). The surface is a
//     JobSpec explain section, the daemon's /v1/explain endpoint and
//     stdio explain verb (the report arrives beside the result event,
//     never inside it), edn explain for the human-facing table,
//     and edn trace -explain to annotate sampled per-hop traces with
//     their per-stage split (SplitTraceHops).
//   - Reproduction: Figure7, Figure8, Figure11, CostTable and
//     MasParCaseStudy regenerate the paper's evaluation artifacts (see
//     edn figures in cmd/edn and EXPERIMENTS.md).
//
// All randomness is drawn from a deterministic SplitMix64 stream (Rand),
// so every number in EXPERIMENTS.md reproduces bit-for-bit.
package edn
