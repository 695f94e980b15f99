// Command edn is the one command-line front end of this repository: the
// paper's artifacts, the packet-level measurements, the simulation
// daemon and the benchmark harness, each a subcommand.
//
//	edn <command> [flags]
//
// Paper reproductions: describe, route, cost, explore, figures,
// experiments, maspar, sim. Packet-level measurements: latency, faults,
// lifetime, loop, explain, trace. Services: serve, bench. Every
// subcommand prints its flags with -h. Errors go to stderr prefixed
// with the subcommand (`edn: latency: ...`) and exit 1.
//
// The packet-level subcommands share one flag group — the EDN(a,b,c,l)
// geometry, -depth (0 is the unbuffered wave sweep), -policy, -arb,
// -warmup, -seed, and -cycles and -shards where they apply (lifetime
// counts epochs, trace runs unsharded) — and, except trace, turn their
// flags into edn.JobSpec jobs run through edn.Run: -dump-spec prints
// the specs as JSON (one document per job) instead of running them,
// and -spec file.json replays a saved spec — whatever its mode — and
// emits the JobResult as JSON, exactly as edn serve would. For the four
// sweeps (latency, faults, lifetime, loop) -format json prints the
// sweep's JobResult documents themselves, byte for byte what -spec
// replays of the -dump-spec output print; table and csv render the
// same results for humans and spreadsheets. latency, lifetime, loop,
// explain and trace take -cpuprofile and -memprofile; latency,
// lifetime and loop take the flight-recorder flags -trace, -trace-cap,
// -heatmap and -heat-bins.
//
// # describe
//
// Prints the physical structure of an EDN(a,b,c,l): per-stage switch
// inventory, interstage permutations, bucket fan-out (for small
// networks, in the spirit of Figure 4) and optionally the complete
// wire-level netlist.
//
//	edn describe -a 16 -b 4 -c 4 -l 2           # the Figure 4 network
//	edn describe -a 64 -b 16 -c 4 -l 2          # the MasPar router
//	edn describe -a 4 -b 2 -c 2 -l 2 -netlist   # full wire dump
//
// # route
//
// Traces a single message through an EDN(a,b,c,l), showing the Lemma 1
// walk stage by stage — which switch, which digit is retired, which
// bucket and wire, and the interstage permutation:
//
//	edn route -a 64 -b 16 -c 4 -l 2 -src 631 -dst 422
//	edn route -a 64 -b 16 -c 4 -l 2 -src 0 -dst 0 -choices 1,3
//	edn route -a 64 -b 16 -c 4 -l 2 -src 5 -dst 5 -order reversed
//
// # cost
//
// Prints the Section 3.1 cost model (Equations 2 and 3) as a table:
// crosspoint and wire costs for the crossbar, the delta network, the
// Figure 8 EDN families and the dilated-delta baseline.
//
//	edn cost -max-inputs 65536
//
// # explore
//
// Searches the EDN design space for a required machine size: every
// square EDN(bc,b,c,l) geometry is evaluated on Equation 4 acceptance
// and Equation 2/3 costs, ranked, and reduced to its cost/performance
// Pareto front — the capacity trade-off the paper's abstract
// highlights.
//
//	edn explore -ports 1024 -max-switch 64
//	edn explore -ports 4096 -budget 500000      # best PA within a crosspoint budget
//	edn explore -ports 1024 -floor 0.5          # cheapest design above a PA floor
//
// # figures
//
// Regenerates the paper's evaluation figures as ASCII charts or CSV:
//
//	edn figures -fig 7          # Figure 7 (8-I/O hyperbar families)
//	edn figures -fig 8          # Figure 8 (16-I/O hyperbar families)
//	edn figures -fig 11         # Figure 11 (resubmission effect)
//	edn figures -fig all -csv   # everything, machine readable
//
// # experiments
//
// Reproduces the paper's complete evaluation in one run: Figures 7, 8
// and 11 (ASCII + CSV), the Equation 2/3 cost table, and the Section
// 5.1 MasPar case study, written into an output directory next to a
// summary index. -simulate adds seeded Monte-Carlo cross-checks
// (simulation.txt), identical at any GOMAXPROCS.
//
//	edn experiments -out results/
//	edn experiments -out results/ -simulate   # include Monte-Carlo runs
//
// # maspar
//
// Reproduces the Section 5.1 worked example: the expected time for the
// RA-EDN(16,4,2,16) system — the MasPar MP-1 16K router — to deliver a
// random permutation among its 16384 processing elements.
//
//	edn maspar            # analytic estimate only
//	edn maspar -simulate  # plus a Monte-Carlo measurement
//
// # sim
//
// Runs a Monte-Carlo measurement of an arbitrary EDN(a,b,c,l) under a
// chosen traffic pattern (uniform, permutation, partial, hotspot,
// identity, bitreversal) and compares the result with the paper's
// closed forms; -json emits the measurement as JSON. An invalid
// geometry (-a 13) is a topology error.
//
//	edn sim -a 64 -b 16 -c 4 -l 2 -r 1 -cycles 1000
//	edn sim -a 16 -b 4 -c 4 -l 2 -traffic permutation
//	edn sim -a 16 -b 4 -c 4 -l 3 -traffic hotspot -hot-fraction 0.2
//	edn sim -a 16 -b 4 -c 4 -l 2 -traffic identity -arb roundrobin
//
// # latency
//
// Sweeps offered load over the buffered packet-level queueing
// simulator and emits the latency-vs-load curve — throughput plus
// P50/P95/P99 delivery latency per load point — as a table, CSV or
// JSON:
//
//	edn latency -a 64 -b 16 -c 4 -l 2 -loads 0.1,0.3,0.5,0.7,0.9
//	edn latency -a 16 -b 4 -c 4 -l 2 -depth 16 -traffic onoff -burst 32 -format csv
//	edn latency -a 4 -b 4 -c 2 -l 3 -depth 1 -policy drop -shards 8 -format json
//	edn latency -a 64 -b 16 -c 4 -l 2 -drain 16 -depth 0
//	edn latency -a 4 -b 4 -c 2 -l 3 -dilated
//
// With -dilated the sweep also runs the EDN's equal-redundancy dilated
// delta counterpart (same port count, dilation equal to the bucket
// capacity) through the dilated packet simulator at every load point —
// a measured curve, as every -dilated comparison is — under the
// identical per-input injection replay (same seeds, same shard split),
// so the throughput and tail columns are a paired comparison. Both
// networks' wire costs land in the table header.
//
// With -drain q the subcommand instead runs the closed-loop permutation
// drain (q packets per input) and compares the measured cycle count
// against the Section 5.1 closed form ExpectedPermutationTime; the
// drain report is text in every -format. -dilated does not apply to
// -drain (the dilated drain runs through a -spec with
// "mode": "drain", "engine": "dilated").
//
// Every run is one (or, with -dilated, two) JobSpec jobs.
//
// # faults
//
// Sweeps a fault fraction over the degraded-mode queueing simulator
// and emits the graceful-degradation curve — delivered bandwidth,
// output reachability and P99 delivery latency per fault fraction — as
// a table, CSV or JSON:
//
//	edn faults -a 4 -b 4 -c 2 -l 3 -fractions 0,0.05,0.1,0.2,0.4
//	edn faults -a 16 -b 4 -c 4 -l 2 -mode switches -policy drop -format csv
//	edn faults -a 4 -b 4 -c 2 -l 3 -expected -shards 4 -format json
//	edn faults -a 16 -b 4 -c 4 -l 2 -dilated
//
// With -dilated the sweep also measures the EDN's dilated-delta
// counterpart (same port count, dilation equal to the bucket capacity)
// through the dilated packet simulator at each fraction, under the
// identical per-input injection replay (same seeds, same shard split):
// the counterpart fails only by its sub-wires, each dying with the
// fraction's probability whatever -mode says, and its measured
// throughput per input lands in the table's `dilated` column and
// CSV's dilated_throughput_per_input — the degraded half of the
// paper's Section 1 wire-cost comparison, with the wire counts of both
// networks in the header. With -expected the CSV adds the
// counterpart's model, dilated_expected_throughput.
//
// Each shard grows one nested fault plan (rising fractions add faults,
// never retract them; one fault sample per shard) under an identical
// traffic replay, so curves degrade monotonically and runs are
// deterministic for a fixed (seed, shards) pair. -policy drop (the
// default) is the recommended policy with dead terminals. With
// -expected the analytic per-wire recursion (the Theorem 3
// generalization over the masked fabric descriptor, one model for the
// EDN and the dilated delta) is evaluated on every sampled fault set
// and reported alongside the measurement.
//
// Every run is one (or, with -dilated, two) JobSpec availability jobs,
// the EDN's first.
//
// # lifetime
//
// Simulates a network's whole service life under continuous
// failure-and-repair churn and emits the availability time series —
// delivered bandwidth, output reachability, dead-component census and
// P99 latency per epoch — plus the lifetime aggregates
// (lifetime-average bandwidth, time below threshold, recovery
// half-life) as a table, CSV or JSON:
//
//	edn lifetime -a 4 -b 4 -c 2 -l 3 -epochs 60 -mtbf 40 -mttr 10
//	edn lifetime -a 16 -b 4 -c 4 -l 2 -mode switches -policy drop -format csv
//	edn lifetime -a 4 -b 4 -c 2 -l 3 -blast-rate 0.05 -blast-radius 2 -format json
//	edn lifetime -a 4 -b 4 -c 2 -l 3 -dilated
//
// With -dilated the subcommand also lives out the EDN's
// equal-redundancy dilated delta counterpart in the dilated packet
// simulator: its sub-wires churn on the same MTBF/MTTR clocks (blast
// overlays, which name EDN structures, do not apply) under the
// identical per-input traffic replay, and the measured per-epoch series
// plus lifetime aggregates land next to the EDN's — the measured
// lifetime half of the paper's Section 1 comparison.
//
// Components fail and repair per shard-independent lifecycle processes
// (exponential or deterministic MTBF/MTTR, optional correlated blast
// arrivals); the running simulator is re-masked in place at every epoch
// boundary — queue contents and arbiter state survive — so the series
// is what a deployed machine would measure, not a sequence of cold
// starts. Each shard lives one independent lifetime. Runs are
// deterministic for a fixed (seed, shards) pair, except under -arb
// random with more than one shard, where the stream-to-switch
// assignment depends on goroutine scheduling (see
// cliutil.ArbiterFactory) and reproducibility is statistical only.
//
// Every run is one (or, with -dilated, two) JobSpec lifetime jobs.
//
// # loop
//
// Measures the closed-loop request/response workload: sources issue
// memory requests through a forward fabric, memory ports service them,
// replies return through a second fabric instance, and each source
// holds at most W requests in flight, re-issuing on timeout per a retry
// policy. The default mode sweeps demand rates and reports goodput, SLA
// attainment, end-to-end latency quantiles and the
// retry/timeout/give-up ledger; -lifetime runs the workload over a
// whole churned service life instead (at -rate, with the lifetime
// churn flags) and reports the per-epoch availability series plus the
// SLA-weighted cost of downtime:
//
//	edn loop -a 4 -b 4 -c 2 -l 3 -rates 0.2,0.4,0.6,0.8
//	edn loop -a 4 -b 4 -c 2 -l 3 -dilated -retry backoff -format csv
//	edn loop -a 4 -b 4 -c 2 -l 3 -lifetime -mtbf 32 -mttr 8 -format json
//	edn loop -a 4 -b 4 -c 2 -l 3 -lifetime -dilated -repair-window 4
//
// With -dilated the equal-redundancy dilated counterpart runs the same
// sweep under the same shard seeding: the demand streams are replayed
// bit-for-bit (tests pin equal offered counts in the rate sweep and
// the lifetime), so any difference in goodput or tail latency is the
// fabric's doing, not the workload's. Runs are deterministic for a
// fixed (seed, shards) pair, except under -arb random with more than
// one shard (see cliutil.ArbiterFactory).
//
// Every run is one (or, with -dilated, two) JobSpec jobs, the EDN's
// first: the rate sweep and the lifetime alike. With -trace the table
// prints each job's probe reports, the dilated job's labelled
// "(dilated)".
//
// # explain
//
// Answers "where did the latency go": it runs a workload with the
// latency-anatomy collector attached and renders the causal
// decomposition of every delivered, dropped and stranded packet's time
// — per stage, split into queue wait (cycles behind packets ahead in
// the same FIFO), head-of-line blocking (cycles a queue head spent
// stalled on a full downstream queue or lost arbitration), and service
// (the traversal cycles themselves) — plus the switch blame ledger (who
// *caused* the blocked cycles) and the congestion trees the blocking
// formed (root switch, depth, spread, lifetime).
//
//	edn explain -a 16 -b 4 -c 4 -l 2 -load 0.9
//	edn explain -a 16 -b 4 -c 4 -l 2 -engine dilated -traffic hotspot
//	edn explain -a 16 -b 4 -c 4 -l 2 -traffic moving-hotspot -period 200
//	edn explain -a 16 -b 4 -c 4 -l 2 -mode loop -load 0.4
//	edn explain -spec job.json
//
// -mode loop runs the closed-loop request/response workload instead
// and additionally prints the five-way request-time split
// (client-queue / retry-wait / forward-fabric / service /
// reply-fabric). -spec replays a saved JobSpec — an explain section is
// injected when the spec has none — and renders its anatomy the same
// way. -format json prints the spec, its result and the anatomy report
// together. Attribution is observation-only: the measured numbers of an
// explained run are byte-identical to an unexplained one's, and the
// anatomy does not depend on -shards.
//
// # trace
//
// Runs a workload with the flight recorder attached and explains
// behavior packet by packet: which stages sampled packets crossed,
// where the blocked cycles went, and what the P99 tail did that the
// median did not.
//
//	edn trace -a 64 -b 16 -c 4 -l 2 -load 0.9
//	edn trace -a 16 -b 4 -c 4 -l 2 -engine dilated -load 0.95 -heatmap
//	edn trace -a 16 -b 4 -c 4 -l 2 -engine loop -load 0.4
//	edn trace -a 64 -b 16 -c 4 -l 2 -load 0.9 -dump
//	edn trace -a 64 -b 16 -c 4 -l 2 -load 0.9 -export prom
//
// The default summary prints the sampled-trace cohort (latency
// quantiles over the traced packets), the per-stage event counts, and
// the tail-vs-median cohort breakdown: for every stage, how many stall
// events (block, park, timeout, retry) the median-latency cohort
// accumulated there versus the P99 cohort — the hop-by-hop location of
// the tail. -engine selects what runs: core, the Monte-Carlo PA
// harness's engine, the EDN's depth-0 Drop sweep (the circuit-switched
// cycle, whatever -depth and -policy say; its output equals -engine edn
// -depth 0 -policy drop but for the engine label, heat rows included);
// the buffered EDN packet engine; the dilated counterpart; or the
// closed-loop request/response workload (where a trace's "stage" is
// the attempt number). Every engine takes its arbiter factory, run and
// traffic from one seed, -seed with 0 selecting 1, as a JobSpec's
// sim.seed does, and -format json reports that seed. The recorder
// attaches after -warmup. -dump prints raw traces, -explain
// annotates them with each hop's wait/block/service split, and -export
// emits the registry metrics as Prometheus text or JSON lines.
//
// # serve
//
// The long-lived simulation service: it keeps built routing tables and
// compiled fault masks cached across requests, schedules JobSpec jobs
// over a bounded worker pool, and streams per-point results as sweeps
// progress — the daemon role in a co-simulation arrangement where an
// external system-level simulator (or a sweep harness) asks this
// repository for network timing instead of forking a CLI per question.
//
// By default it speaks the JSON-line protocol on stdin/stdout:
//
//	echo '{"id":"j1","op":"run","spec":{"mode":"latency",
//	  "geometry":{"a":16,"b":4,"c":4,"l":2},"sim":{"cycles":2000}}}' | edn serve
//
// With -http it (also) serves the HTTP API:
//
//	edn serve -http :8080 &
//	curl -s -d @spec.json localhost:8080/v1/jobs      # NDJSON event stream
//	curl -s localhost:8080/v1/stats                   # scheduler + cache counters
//	curl -s localhost:8080/metrics                    # Prometheus text
//
// The JSON-line grammar and the event stream are documented in
// internal/serve; specs are the same edn.JobSpec every packet-level
// subcommand emits with -dump-spec, so any CLI run replays through the
// daemon byte-identically (results are pinned bit-for-bit to the facade
// functions, cache hits included).
//
// # bench
//
// The ns/op regression harness around the repository's benchmark
// trajectory (BENCH_N.json). It parses `go test -bench` output — from a
// file, stdin, or a go test run it launches itself — and then any
// combination of:
//
//   - diffs the run against a committed snapshot (-baseline),
//   - enforces the committed per-benchmark ns/op budgets (-check
//     against -budgets, WARN within the noise band over a budget,
//     exit 1 beyond -hard-factor x budget or when a budgeted
//     benchmark vanished),
//   - records the run as the next trajectory snapshot (-record),
//   - derives a fresh budget file from the run (-write-budgets, with
//     -headroom and -budget-bench).
//
// Typical uses:
//
//	go test -run '^$' -bench . -benchmem ./... | edn bench -input - -baseline BENCH_2.json
//	edn bench -input bench.out -check -budgets BENCH_BUDGETS.json
//	edn bench -bench 'QueueCycle' -pkg ./internal/queuesim -format csv
package main
