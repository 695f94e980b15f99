//go:build amd64

// The examples print measured numbers; like TestGoldenJobDigests they
// are pinned on amd64, where the floating-point results are recorded.

package edn_test

import (
	"fmt"
	"log"
	"strings"

	"edn"
)

// Quickstart: build an Expanded Delta Network, inspect its structure and
// cost, query the closed-form performance model, trace one message, and
// route a full cycle of random traffic through the cycle-level simulator.
func Example_quickstart() {
	// The MasPar MP-1 router network: EDN(64,16,4,2) — 1024x1024, built
	// from H(64 -> 16x4) hyperbars and 4x4 output crossbars.
	cfg, err := edn.New(64, 16, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network          %v\n", cfg)
	fmt.Printf("terminals        %d inputs, %d outputs\n", cfg.Inputs(), cfg.Outputs())
	fmt.Printf("stages           %d hyperbar + 1 crossbar\n", cfg.L)
	fmt.Printf("paths per pair   %d (Theorem 2: c^l)\n", cfg.PathCount())
	fmt.Printf("crosspoint cost  %d (Equation 2)\n", cfg.CrosspointCount())
	fmt.Printf("wire cost        %d (Equation 3)\n", cfg.WireCount())

	// Closed-form performance (Section 3.2).
	fmt.Printf("\nPA(1)   = %.4f  (Equation 4, uniform traffic at full load)\n", edn.PA(cfg, 1))
	fmt.Printf("PAp(1)  = %.4f  (Equation 5, permutation traffic)\n", edn.PAPermutation(cfg, 1))
	fmt.Printf("crossbar reference at the same size: %.4f\n", edn.CrossbarPA(cfg.Inputs(), 1))

	// Trace one message through the Lemma 1 walk.
	tr, err := edn.TraceRoute(cfg, 631, 422, []int{1, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", tr)

	// Route one cycle of uniform random traffic.
	net, err := edn.NewNetwork(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	rng := edn.NewRand(42)
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = rng.Intn(cfg.Outputs())
	}
	_, stats, err := net.RouteCycle(dest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none simulated cycle at full load: %d/%d delivered (PA=%.4f, model %.4f)\n",
		stats.Delivered, stats.Offered, stats.PA(), edn.PA(cfg, 1))
	fmt.Printf("blocked per stage: %v\n", stats.Blocked)

	// Output:
	// network          EDN(64,16,4,2)
	// terminals        1024 inputs, 1024 outputs
	// stages           2 hyperbar + 1 crossbar
	// paths per pair   16 (Theorem 2: c^l)
	// crosspoint cost  135168 (Equation 2)
	// wire cost        4096 (Equation 3)
	//
	// PA(1)   = 0.5437  (Equation 4, uniform traffic at full load)
	// PAp(1)  = 0.8109  (Equation 5, permutation traffic)
	// crossbar reference at the same size: 0.6323
	//
	// EDN(64,16,4,2): route 631 -> 422
	//   stage 1 (hyperbar): line  631 -> switch   9 port 55, digit 6, wire 1 -> line  601 --gamma-->  421
	//   stage 2 (hyperbar): line  421 -> switch   6 port 37, digit 9, wire 2 -> line  422
	//   stage 3 (crossbar): line  422 -> switch 105 port  2, digit 2, wire 0 -> line  422
	//
	// one simulated cycle at full load: 548/1024 delivered (PA=0.5352, model 0.5437)
	// blocked per stage: [195 87 194]
}

// Retirement-order demonstration (Corollary 2, Figures 5 and 6): the
// EDN(64,16,4,2) network cannot route the identity permutation in one
// pass — every first-stage switch funnels its entire load into a single
// bucket — but retiring the tag digits in reverse order spreads the load
// perfectly, and a fixed compensating permutation at the outputs restores
// every destination. Average-case behavior is unchanged; specific
// permutations differ dramatically, exactly as the paper notes.
func Example_retirement() {
	cfg, err := edn.New(64, 16, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	net, err := edn.NewNetwork(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	identity := edn.IdentityPattern(cfg.Inputs()).Dest

	// Pass 1: standard retirement order (Figure 5).
	_, stats, err := net.RouteCycle(identity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v, identity permutation, standard order d1 then d0:\n", cfg)
	fmt.Printf("  delivered %d/%d (PA = %.4f) — every switch fights over one bucket\n\n",
		stats.Delivered, stats.Offered, stats.PA())

	// Pass 2: reversed retirement order (Figure 6): route to F(dst), then
	// apply the fixed compensating permutation F^-1 at the outputs.
	order := edn.ReversedOrder(cfg)
	table, err := order.OutputPermutation()
	if err != nil {
		log.Fatal(err)
	}
	remapped := make([]int, len(identity))
	for i, d := range identity {
		f, err := order.F(d)
		if err != nil {
			log.Fatal(err)
		}
		remapped[i] = f
	}
	out, stats2, err := net.RouteCycle(remapped)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, o := range out {
		if o.Delivered() && table[o.Output] == identity[i] {
			correct++
		}
	}
	fmt.Printf("reversed order d0 then d1, plus the Figure 6 output permutation:\n")
	fmt.Printf("  delivered %d/%d (PA = %.4f), %d arrive at their original destinations\n\n",
		stats2.Delivered, stats2.Offered, stats2.PA(), correct)

	// Average case is unchanged: random traffic sees the same acceptance
	// under either order (Corollary 2's closing remark).
	res, err := edn.MeasureUniformPA(cfg, 1, edn.SimOptions{Cycles: 300, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform random traffic for reference: PA = %.4f (order-independent)\n", res.PA)

	// Show the first few entries of the compensating permutation.
	fmt.Printf("\ncompensating output permutation (first 8 entries): %v\n", table[:8])

	// Output:
	// EDN(64,16,4,2), identity permutation, standard order d1 then d0:
	//   delivered 64/1024 (PA = 0.0625) — every switch fights over one bucket
	//
	// reversed order d0 then d1, plus the Figure 6 output permutation:
	//   delivered 1024/1024 (PA = 1.0000), 1024 arrive at their original destinations
	//
	// uniform random traffic for reference: PA = 0.5317 (order-independent)
	//
	// compensating output permutation (first 8 entries): [0 1 2 3 64 65 66 67]
}

// Hot-spot (NUTS) study: the introduction motivates EDN multipath as a
// defense against Non-Uniform Traffic Spots (Lang & Kurisaki). This
// example concentrates a growing fraction of all requests onto a single
// memory module and measures how acceptance degrades on three networks
// of identical port count: a pure delta network, the MasPar-geometry
// EDN, and a higher-capacity EDN. Multipath absorbs internal contention
// created by the hot module's back-pressure; the singleton hot output
// itself saturates identically everywhere (it is one wire), so the
// interesting signal is the fate of the *background* traffic.
func Example_hotspot() {
	// Three 1024-port designs from the edn explore Pareto sweep.
	configs := []struct {
		name       string
		a, b, c, l int
	}{
		{"delta   EDN(4,4,1,5)", 4, 4, 1, 5},
		{"maspar  EDN(64,16,4,2)", 64, 16, 4, 2},
		{"high-c  EDN(64,4,16,3)", 64, 4, 16, 3},
	}

	fmt.Println("hot-spot traffic at r=0.75, 1024 ports: fraction of ALL requests aimed at module 0")
	header := fmt.Sprintf("%-24s", "network")
	fractions := []float64{0, 0.01, 0.05, 0.1, 0.2}
	for _, f := range fractions {
		header += fmt.Sprintf("  f=%-6.2f", f)
	}
	fmt.Println(strings.TrimRight(header, " "))

	for _, cse := range configs {
		cfg, err := edn.New(cse.a, cse.b, cse.c, cse.l)
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-24s", cse.name)
		for _, f := range fractions {
			pattern := edn.HotSpot{Rate: 0.75, Fraction: f, Hot: 0, Rng: edn.NewRand(11)}
			res, err := edn.MeasurePA(cfg, pattern, edn.SimOptions{Cycles: 300, Seed: 13})
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("  %.4f  ", res.PA)
		}
		fmt.Println(strings.TrimRight(row, " "))
	}

	fmt.Println("\nmultipass drain of a worst-case pattern (every input -> module 0, 32-port networks):")
	for _, dims := range [][4]int{{4, 4, 1, 2}, {8, 4, 2, 2}} {
		cfg, err := edn.New(dims[0], dims[1], dims[2], dims[3])
		if err != nil {
			log.Fatal(err)
		}
		dest := make([]int, cfg.Inputs())
		res, err := edn.RouteMultipass(cfg, dest, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v: %d messages to one port drain in %d passes (1 per pass — the output wire is the bottleneck)\n",
			cfg, cfg.Inputs(), res.Passes)
	}

	// Output:
	// hot-spot traffic at r=0.75, 1024 ports: fraction of ALL requests aimed at module 0
	// network                   f=0.00    f=0.01    f=0.05    f=0.10    f=0.20
	// delta   EDN(4,4,1,5)      0.3906    0.3880    0.3768    0.3646    0.3390
	// maspar  EDN(64,16,4,2)    0.6355    0.6323    0.6135    0.5906    0.5453
	// high-c  EDN(64,4,16,3)    0.6855    0.6812    0.6534    0.6233    0.5585
	//
	// multipass drain of a worst-case pattern (every input -> module 0, 32-port networks):
	//   EDN(4,4,1,2): 16 messages to one port drain in 16 passes (1 per pass — the output wire is the bottleneck)
	//   EDN(8,4,2,2): 32 messages to one port drain in 32 passes (1 per pass — the output wire is the bottleneck)
}

// MIMD shared-memory study (Section 4): processors share memory modules
// through an EDN; blocked requests are resubmitted until satisfied. The
// example sweeps the fresh request rate, solves the Equation 7-11 Markov
// fixed point, measures the same system with the cycle-level simulator,
// and reports both side by side — the Figure 11 phenomenon plus the
// processor-efficiency numbers the paper derives.
func Example_mimd() {
	// A 256-port shared-memory machine: EDN(16,4,4,4) between 256
	// processors and 256 memory modules (the NYU Ultracomputer scale).
	cfg, err := edn.New(16, 4, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared-memory system over %v (%d processors, %d memory modules)\n\n",
		cfg, cfg.Inputs(), cfg.Outputs())

	fmt.Printf("%-6s  %-28s  %-28s  %-10s\n", "r", "model (Eq. 7-11)", "simulated", "efficiency")
	fmt.Printf("%-6s  %-28s  %-28s  %s\n", "", "PA'     r'      qA", "PA'     r'      qA", "(model)")
	for _, r := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		model, err := edn.Resubmission(cfg, r)
		if err != nil {
			log.Fatal(err)
		}
		meas, err := edn.SimulateMIMD(cfg, r, edn.MIMDOptions{Cycles: 2000, Warmup: 300, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6.2f  %-7.4f %-7.4f %-11.4f  %-7.4f %-7.4f %-11.4f  %.4f\n",
			r, model.PAPrime, model.EffectiveRate, model.QActive,
			meas.PA, meas.EffectiveRate, meas.QActive, model.Efficiency())
	}

	// The resubmission penalty at r = 0.5 (the Figure 11 comparison).
	const r = 0.5
	ignored := edn.PA(cfg, r)
	model, err := edn.Resubmission(cfg, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat r=%.1f: PA with rejects ignored = %.4f, sustained PA' with resubmission = %.4f\n",
		r, ignored, model.PAPrime)
	fmt.Printf("resubmission inflates the offered rate from %.2f to r' = %.4f\n", r, model.EffectiveRate)

	// Realism ablation: physically persistent retries (same module every
	// cycle) versus the paper's uniform-redraw assumption.
	redraw, err := edn.SimulateMIMD(cfg, r, edn.MIMDOptions{Cycles: 2000, Warmup: 300, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	persistent, err := edn.SimulateMIMD(cfg, r, edn.MIMDOptions{
		Cycles: 2000, Warmup: 300, Seed: 7, PersistentDestinations: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretry model ablation at r=%.1f:\n", r)
	fmt.Printf("  uniform redraw (paper's assumption): PA'=%.4f, waiting %.1f%%, avg wait %.2f cycles\n",
		redraw.PA, 100*redraw.QWaiting, redraw.AvgWaitCycles)
	fmt.Printf("  persistent destination (realistic):  PA'=%.4f, waiting %.1f%%, avg wait %.2f cycles\n",
		persistent.PA, 100*persistent.QWaiting, persistent.AvgWaitCycles)

	// Output:
	// shared-memory system over EDN(16,4,4,4) (1024 processors, 1024 memory modules)
	//
	// r       model (Eq. 7-11)              simulated                     efficiency
	//         PA'     r'      qA            PA'     r'      qA            (model)
	// 0.10    0.9614  0.1036  0.9960       0.9499  0.1049  0.9947       0.9960
	// 0.25    0.8913  0.2722  0.9704       0.8615  0.2789  0.9614       0.9704
	// 0.50    0.7150  0.5831  0.8338       0.6755  0.5974  0.8061       0.8338
	// 0.75    0.5718  0.8399  0.6404       0.5467  0.8461  0.6165       0.6404
	// 1.00    0.4996  1.0000  0.4996       0.4824  1.0000  0.4824       0.4996
	//
	// at r=0.5: PA with rejects ignored = 0.7654, sustained PA' with resubmission = 0.7150
	// resubmission inflates the offered rate from 0.50 to r' = 0.5831
	//
	// retry model ablation at r=0.5:
	//   uniform redraw (paper's assumption): PA'=0.6755, waiting 19.4%, avg wait 0.48 cycles
	//   persistent destination (realistic):  PA'=0.6224, waiting 23.3%, avg wait 0.61 cycles
}

// SIMD global-router study (Section 5): a MasPar MP-1-style machine in
// which clusters of PEs share network ports (the Restricted-Access EDN).
// The example routes random permutations over all 16K processing
// elements, compares the measured delivery time with the Section 5.1
// estimate q/PA(1) + J, and ablates the cluster schedule.
func Example_simdRouter() {
	sys := edn.MasParMP1()
	fmt.Printf("system    %v — the MasPar MP-1 16K router\n", sys)
	fmt.Printf("network   %v (%d ports)\n", sys.Network, sys.P())
	fmt.Printf("clusters  %d x %d PEs = %d processors\n\n", sys.P(), sys.Q, sys.N())

	model, err := edn.ExpectedPermutationTime(sys.Network, sys.Q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Section 5.1 estimate: q/PA(1) + J = %.2f/%.4f + %d = %.2f cycles (paper: 34.41)\n\n",
		float64(sys.Q), model.PA1, model.J, model.Cycles())

	// Route three random permutations and watch the drain.
	rng := edn.NewRand(2024)
	for trial := 1; trial <= 3; trial++ {
		perm := rng.Perm(sys.N())
		res, err := edn.RoutePermutation(sys, perm, edn.RouteOptions{Seed: rng.Uint64() | 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trial %d: %d cycles; deliveries per cycle: first %v ... last %v\n",
			trial, res.Cycles, res.Delivered[:3], res.Delivered[len(res.Delivered)-3:])
	}

	// Schedule ablation on a smaller sibling so each variant runs many
	// trials quickly: RA-EDN(4,4,2,8) = EDN(16,4,4,2) with 64 ports.
	small, err := edn.NewRAEDN(4, 4, 2, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule ablation on %v (%d PEs):\n", small, small.N())
	for _, sched := range []edn.Scheduler{
		edn.RandomScheduler{}, edn.FIFOScheduler{}, edn.GreedyDistinctScheduler{},
	} {
		var total int
		const trials = 10
		r := edn.NewRand(77)
		for i := 0; i < trials; i++ {
			perm := r.Perm(small.N())
			res, err := edn.RoutePermutation(small, perm, edn.RouteOptions{Seed: r.Uint64() | 1, Scheduler: sched})
			if err != nil {
				log.Fatal(err)
			}
			total += res.Cycles
		}
		fmt.Printf("  %-16s mean %.1f cycles over %d permutations\n",
			sched.Name(), float64(total)/trials, trials)
	}
	smallModel, err := edn.ExpectedPermutationTime(small.Network, small.Q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-16s %.1f cycles\n", "(model)", smallModel.Cycles())

	// Output:
	// system    RA-EDN(16,4,2,16) — the MasPar MP-1 16K router
	// network   EDN(64,16,4,2) (1024 ports)
	// clusters  1024 x 16 PEs = 16384 processors
	//
	// Section 5.1 estimate: q/PA(1) + J = 16.00/0.5437 + 4 = 33.43 cycles (paper: 34.41)
	//
	// trial 1: 47 cycles; deliveries per cycle: first [563 559 558] ... last [4 3 1]
	// trial 2: 45 cycles; deliveries per cycle: first [551 552 546] ... last [12 7 4]
	// trial 3: 47 cycles; deliveries per cycle: first [570 537 552] ... last [4 2 1]
	//
	// schedule ablation on RA-EDN(4,4,2,8) (512 PEs):
	//   random           mean 21.0 cycles over 10 permutations
	//   fifo             mean 22.4 cycles over 10 permutations
	//   greedy-distinct  mean 16.3 cycles over 10 permutations
	//   (model)          17.3 cycles
}

// Latency-vs-load: what does EDN expansion buy a *buffered* network?
//
// The paper argues expansion (c > 1) absorbs contention in a
// circuit-switched network. This example asks the queueing-side
// question: with identical 4x4-bucket switches, identical 16 input
// ports and identical FIFO depth, how do queueing delay and saturation
// throughput compare between the expanded EDN(4,4,2,3) (16 -> 128, two
// wires per bucket, 8 paths per pair) and its delta-network corner
// EDN(4,4,1,2) (16 -> 16, single path)?
func Example_latency() {
	expanded, err := edn.New(4, 4, 2, 3) // EDN(4,4,2,3): 16 inputs, 128 outputs
	if err != nil {
		log.Fatal(err)
	}
	delta, err := edn.New(4, 4, 1, 2) // EDN(4,4,1,2): the c=1 corner with the same 16 inputs
	if err != nil {
		log.Fatal(err)
	}

	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	qopts := edn.QueueOptions{Depth: 4, Policy: edn.QueueBackpressure}
	opts := edn.SimOptions{Cycles: 4000, Warmup: 1000, Seed: 1}
	const shards = 4 // fixed so the run is deterministic

	for _, cfg := range []edn.Config{expanded, delta} {
		results, err := edn.SaturationSweep(edn.EDNNet{Config: cfg, Queue: qopts}, loads, nil, opts, shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v — %d inputs, %d outputs, %d paths/pair, depth %d FIFOs\n",
			cfg, cfg.Inputs(), cfg.Outputs(), cfg.PathCount(), qopts.Depth)
		fmt.Printf("  %6s %11s %8s %8s %8s\n", "load", "thr/input", "p50", "p95", "p99")
		for i, r := range results {
			fmt.Printf("  %6.2f %11.3f %8.0f %8.0f %8.0f\n",
				loads[i], r.Throughput/float64(cfg.Inputs()),
				r.LatencyP50, r.LatencyP95, r.LatencyP99)
		}
		fmt.Println()
	}
	fmt.Println("The expanded network's extra bucket wires keep per-input throughput")
	fmt.Println("near the offered load and the latency tail flat, while the single-path")
	fmt.Println("delta corner saturates early and its P99 grows with the queues.")

	// Output:
	// EDN(4,4,2,3) — 16 inputs, 128 outputs, 8 paths/pair, depth 4 FIFOs
	//     load   thr/input      p50      p95      p99
	//     0.10       0.098        4        4        4
	//     0.30       0.299        4        4        5
	//     0.50       0.499        4        5        5
	//     0.70       0.700        4        5        6
	//     0.90       0.889        4        8        9
	//     1.00       0.944        5        9       10
	//
	// EDN(4,4,1,2) — 16 inputs, 16 outputs, 1 paths/pair, depth 4 FIFOs
	//     load   thr/input      p50      p95      p99
	//     0.10       0.098        3        4        5
	//     0.30       0.299        3        6        8
	//     0.50       0.476        4       13       21
	//     0.70       0.532        6       21       36
	//     0.90       0.547        8       23       41
	//     1.00       0.546        9       24       44
	//
	// The expanded network's extra bucket wires keep per-input throughput
	// near the offered load and the latency tail flat, while the single-path
	// delta corner saturates early and its P99 grows with the queues.
}

// Degraded mode: what does EDN expansion buy when the network starts
// dying?
//
// Theorem 2 gives EDN(a,b,c,l) exactly c^l equivalent paths per
// source/destination pair. The bandwidth story of that freedom is in
// Example_latency; this example tells the survival story. Interstage
// wires die at a rising fault fraction and the router grants around
// them: a bucket with a dead wire keeps carrying traffic on its
// siblings, so the expanded EDN(4,4,2,3) (two wires per bucket, 8 paths
// per pair) sheds bandwidth gracefully, while the same fraction applied
// to its delta-network corner EDN(4,4,1,2) (single path) severs whole
// routes — its reachable-output fraction collapses with the wires.
func Example_degraded() {
	expanded, err := edn.New(4, 4, 2, 3) // 16 inputs, 2 wires/bucket, 8 paths/pair
	if err != nil {
		log.Fatal(err)
	}
	delta, err := edn.New(4, 4, 1, 2) // same 16 inputs, single path
	if err != nil {
		log.Fatal(err)
	}

	aopts := edn.AvailabilityOptions{
		Fractions: []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5},
		Mode:      edn.FaultWires,
		Load:      1,
	}
	// Drop policy: degraded circuit-switched operation. (Backpressure
	// would park packets behind dead components instead of measuring
	// what still flows.)
	qopts := edn.QueueOptions{Depth: 4, Policy: edn.QueueDrop}
	opts := edn.SimOptions{Cycles: 4000, Warmup: 1000, Seed: 1}
	const shards = 4 // fixed so the run is deterministic

	for _, cfg := range []edn.Config{expanded, delta} {
		results, err := edn.AvailabilitySweep(edn.EDNNet{Config: cfg, Queue: qopts}, aopts, nil, opts, shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v — %d inputs, %d paths/pair, dead wires at rising fraction\n",
			cfg, cfg.Inputs(), cfg.PathCount())
		fmt.Printf("  %9s %11s %10s %8s %10s\n", "fraction", "thr/input", "reachable", "p99", "deadwires")
		for _, r := range results {
			fmt.Printf("  %9.2f %11.3f %10.3f %8.0f %10.1f\n",
				r.FaultFraction, r.ThroughputPerInput, r.ReachableFraction, r.LatencyP99, r.DeadWires)
		}
		fmt.Println()
	}
	fmt.Println("The expanded network's spare bucket wires absorb the first faults almost")
	fmt.Println("for free and keep every output reachable deep into the sweep; the")
	fmt.Println("single-path delta corner loses destinations in proportion to its dead")
	fmt.Println("wires and its delivered bandwidth falls with them.")

	// Output:
	// EDN(4,4,2,3) — 16 inputs, 8 paths/pair, dead wires at rising fraction
	//    fraction   thr/input  reachable      p99  deadwires
	//        0.00       0.884      1.000        4        0.0
	//        0.02       0.875      1.000        4        6.8
	//        0.05       0.851      0.988        4       14.8
	//        0.10       0.789      0.988        4       25.5
	//        0.20       0.681      0.953        4       47.0
	//        0.30       0.551      0.875        4       70.8
	//        0.50       0.314      0.715        4      114.0
	//
	// EDN(4,4,1,2) — 16 inputs, 1 paths/pair, dead wires at rising fraction
	//    fraction   thr/input  reachable      p99  deadwires
	//        0.00       0.527      1.000        3        0.0
	//        0.02       0.520      1.000        3        0.2
	//        0.05       0.514      1.000        3        0.5
	//        0.10       0.443      0.891        3        3.0
	//        0.20       0.368      0.797        3        6.2
	//        0.30       0.287      0.688        3        9.5
	//        0.50       0.133      0.422        3       17.2
	//
	// The expanded network's spare bucket wires absorb the first faults almost
	// for free and keep every output reachable deep into the sweep; the
	// single-path delta corner loses destinations in proportion to its dead
	// wires and its delivered bandwidth falls with them.
}

// Lifetime churn: what does EDN expansion buy over a machine's whole
// service life?
//
// Example_degraded froze a fault set and measured the wreckage; real
// machines live under continuous churn — components fail stochastically
// and repair crews bring them back. This example runs the expanded
// EDN(4,4,2,3) through such a lifetime (exponential MTBF/MTTR per
// interstage wire, ~20% of wires dead in steady state) and compares its
// lifetime-average bandwidth against the same family's delta-network
// corner EDN(4,4,1,2) running with NO faults at all. The expanded
// network's spare bucket wires absorb the churn so well that even while
// perpetually broken it outdelivers the pristine single-path delta —
// the static dominance result of Example_degraded extended to the
// time axis.
func Example_lifetime() {
	expanded, err := edn.New(4, 4, 2, 3) // 16 inputs, 2 wires/bucket, 8 paths/pair
	if err != nil {
		log.Fatal(err)
	}
	delta, err := edn.New(4, 4, 1, 2) // same 16 inputs, single path
	if err != nil {
		log.Fatal(err)
	}

	// MTBF 32, MTTR 8: each wire spends 1/5 of its life dead — an
	// aggressively unreliable machine.
	spec := edn.LifecycleSpec{Mode: edn.FaultWires, MTBF: 32, MTTR: 8}
	lopts := edn.LifetimeOptions{Epochs: 40, EpochCycles: 200, Spec: spec}
	qopts := edn.QueueOptions{Depth: 4, Policy: edn.QueueDrop}
	opts := edn.SimOptions{Warmup: 500, Seed: 1}
	const shards = 4 // fixed so the run is deterministic

	churned, err := edn.LifetimeSweep(edn.EDNNet{Config: expanded, Queue: qopts}, lopts, nil, opts, shards)
	if err != nil {
		log.Fatal(err)
	}
	// The delta corner lives a charmed life: zero churn. (Its healthy
	// bandwidth is its lifetime bandwidth; measuring it through the same
	// harness keeps the comparison apples-to-apples.)
	healthySpec := edn.LifecycleSpec{Mode: edn.FaultWires, MTBF: 1e12, MTTR: 1}
	healthyOpts := lopts
	healthyOpts.Spec = healthySpec
	pristine, err := edn.LifetimeSweep(edn.EDNNet{Config: delta, Queue: qopts}, healthyOpts, nil, opts, shards)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%v under churn (mtbf=%g, mttr=%g: %.0f%% of wires dead in steady state)\n",
		expanded, spec.MTBF, spec.MTTR, 100*spec.DeadFractionSteadyState())
	fmt.Printf("  %6s %9s %10s %10s\n", "epoch", "deadfrac", "thr/input", "reachable")
	for e := 0; e < churned.Epochs; e += 5 {
		fmt.Printf("  %6d %9.3f %10.3f %10.3f\n",
			e, churned.DeadFraction.Mean(e), churned.Bandwidth.Mean(e), churned.Reachable.Mean(e))
	}
	fmt.Println()
	fmt.Printf("lifetime-average bandwidth per input:\n")
	fmt.Printf("  %v, perpetually breaking:  %.3f\n", expanded, churned.LifetimeBandwidth)
	fmt.Printf("  %v, never failing at all: %.3f\n", delta, pristine.LifetimeBandwidth)
	if churned.LifetimeBandwidth > pristine.LifetimeBandwidth {
		fmt.Println("\nThe expanded network spends its whole life losing wires and still")
		fmt.Println("outdelivers the fault-free single-path delta: Theorem 2's path")
		fmt.Println("redundancy is worth more than perfect hardware.")
	}
	if churned.Stranded > 0 {
		fmt.Printf("\n(%d packets were stranded on wires that died under them and were\n", churned.Stranded)
		fmt.Println("dropped at the epoch boundary — the price of in-place failure,")
		fmt.Println("which a rebuild-per-epoch simulation could never observe.)")
	}

	// Output:
	// EDN(4,4,2,3) under churn (mtbf=32, mttr=8: 20% of wires dead in steady state)
	//    epoch  deadfrac  thr/input  reachable
	//        0     0.035      0.862      1.000
	//        5     0.134      0.783      0.977
	//       10     0.155      0.755      0.977
	//       15     0.188      0.675      0.953
	//       20     0.185      0.696      0.969
	//       25     0.184      0.714      0.977
	//       30     0.186      0.704      0.973
	//       35     0.182      0.709      0.949
	//
	// lifetime-average bandwidth per input:
	//   EDN(4,4,2,3), perpetually breaking:  0.725
	//   EDN(4,4,1,2), never failing at all: 0.528
	//
	// The expanded network spends its whole life losing wires and still
	// outdelivers the fault-free single-path delta: Theorem 2's path
	// redundancy is worth more than perfect hardware.
	//
	// (183 packets were stranded on wires that died under them and were
	// dropped at the epoch boundary — the price of in-place failure,
	// which a rebuild-per-epoch simulation could never observe.)
}

// Closed-loop round trips: what does a processor actually experience?
//
// Every earlier example measures the fabric open-loop — packets go in,
// deliveries are counted. A shared-memory machine doesn't work that
// way: a processor issues a request, the memory port services it, the
// reply comes back through a second fabric, and the processor stalls
// when its outstanding-request window fills. Loss becomes a timeout,
// timeout becomes a retry, and a dead region of the machine becomes
// latency seen by every source that keeps asking for it.
//
// This example runs that workload over the headline EDN(4,4,2,3) — 16
// processors, 128 memory ports — against its equal-redundancy 2-dilated
// counterpart, with bit-identical demand streams on both fabrics.
// First healthy, sweeping demand; then through a churned service life
// (MTBF 32 / MTTR 8 per wire: ~20% dead in steady state) under an SLA
// response-deadline curve. The two phases disagree, and that is the
// point: healthy, the EDN's expansion wins every rate; churned, the
// verdict flips, because a round trip must survive every hop twice and
// the EDN's extra expansion stage compounds loss faster than its
// bucket redundancy recovers it.
func Example_closedloop() {
	cfg, err := edn.New(4, 4, 2, 3) // 16 sources, 128 memory ports
	if err != nil {
		log.Fatal(err)
	}
	dcfg, err := edn.DilatedCounterpart(cfg)
	if err != nil {
		log.Fatal(err)
	}

	lo := edn.ClosedLoopOptions{
		Window:      4,
		Timeout:     64,
		Retry:       edn.RetryBackoff,
		BackoffBase: 2, BackoffCap: 32,
		SLA: edn.SLA{Deadline: 48, Zero: 16}, // full credit <= 16 cycles, none past 48
	}
	ednNet := edn.EDNNet{Config: cfg, Queue: edn.QueueOptions{Depth: 4, Policy: edn.QueueDrop}}
	dilNet := edn.DilatedNet{Config: dcfg, Queue: edn.DilatedQueueOptions{Depth: 4, Policy: edn.QueueDrop}}
	opts := edn.SimOptions{Cycles: 2000, Warmup: 300, Seed: 1}
	const shards = 4 // fixed so the run is deterministic

	// Healthy rate sweep, replay-matched: the same Options derive the
	// same shard seeds on both fabrics, so both see bit-equal offered
	// request counts at every rate. The rates straddle the dilated
	// counterpart's knee — the EDN's extra wiring keeps it comfortable
	// well past where the counterpart starts missing deadlines.
	rates := []float64{0.1, 0.2, 0.25}
	ednRes, err := edn.MeasureClosedLoop(ednNet, rates, lo, opts, shards)
	if err != nil {
		log.Fatal(err)
	}
	dilRes, err := edn.MeasureClosedLoop(dilNet, rates, lo, opts, shards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy closed loop — %v vs %v, W=%d, timeout=%d, retry=%v\n",
		cfg, dcfg, lo.Window, lo.Timeout, lo.Retry)
	fmt.Println(" rate   EDN goodput  sla    p95 | dilated goodput  sla    p95")
	for i, r := range ednRes {
		d := dilRes[i]
		fmt.Printf(" %.2f     %.3f    %.3f  %4.0f |       %.3f    %.3f  %4.0f\n",
			r.Rate, r.Goodput, r.SLAAttainment, r.LatencyP95,
			d.Goodput, d.SLAAttainment, d.LatencyP95)
	}

	// The same workload over a churned service life: both fabrics of
	// each machine churn independently, sources avoid unreachable
	// memory ports, and the SLA curve prices every late or lost round
	// trip into a single cost-of-downtime number.
	spec := edn.LifecycleSpec{Mode: edn.FaultWires, MTBF: 32, MTTR: 8}
	lopts := edn.LifetimeOptions{Epochs: 30, EpochCycles: 200, Load: 0.2, Spec: spec}
	ednLife, err := edn.ClosedLoopLifetimeSweep(ednNet, lopts, lo, opts, shards)
	if err != nil {
		log.Fatal(err)
	}
	dilLife, err := edn.ClosedLoopLifetimeSweep(dilNet, lopts, lo, opts, shards)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nchurned lifetime (mtbf=%g, mttr=%g: %.0f%% of wires dead in steady state, rate=%g)\n",
		spec.MTBF, spec.MTTR, 100*spec.DeadFractionSteadyState(), lopts.Load)
	for _, r := range []edn.ClosedLoopLifetimeResult{ednLife, dilLife} {
		fmt.Printf("  %-28s goodput=%.3f/src/cycle sla=%.3f downtime-cost=%.1f%% retries=%d givenup=%d\n",
			r.Network(), r.GoodputOverall, r.SLAAttainmentOverall,
			100*r.CostOfDowntime, r.Ledger.Retries, r.Ledger.GivenUp)
	}
	fmt.Println("\nBoth machines asked for the same work, bit for bit. Healthy, the")
	fmt.Println("EDN's 128 service ports and spare paths keep its tail flat well")
	fmt.Println("past the counterpart's knee. Under churn the shallower dilated")
	fmt.Println("fabric loses fewer round trips — survival is exponential in hop")
	fmt.Println("count, and depth is the one thing expansion cannot buy back.")
	fmt.Println("Open-loop bandwidth (Example_lifetime) and closed-loop deadline")
	fmt.Println("credit rank the same two machines differently; which one is")
	fmt.Println("'more robust' depends on which question the workload asks.")

	// Output:
	// healthy closed loop — EDN(4,4,2,3) vs 2-dilated delta(b=4,l=2), W=4, timeout=64, retry=backoff
	//  rate   EDN goodput  sla    p95 | dilated goodput  sla    p95
	//  0.10     0.100    0.989    10 |       0.100    0.951    46
	//  0.20     0.199    0.977    27 |       0.193    0.742   148
	//  0.25     0.242    0.914    62 |       0.212    0.496   255
	//
	// churned lifetime (mtbf=32, mttr=8: 20% of wires dead in steady state, rate=0.2)
	//   EDN(4,4,2,3)                 goodput=0.109/src/cycle sla=0.236 downtime-cost=76.4% retries=12585 givenup=0
	//   2-dilated delta(b=4,l=2)     goodput=0.137/src/cycle sla=0.337 downtime-cost=66.3% retries=12508 givenup=0
	//
	// Both machines asked for the same work, bit for bit. Healthy, the
	// EDN's 128 service ports and spare paths keep its tail flat well
	// past the counterpart's knee. Under churn the shallower dilated
	// fabric loses fewer round trips — survival is exponential in hop
	// count, and depth is the one thing expansion cannot buy back.
	// Open-loop bandwidth (Example_lifetime) and closed-loop deadline
	// credit rank the same two machines differently; which one is
	// 'more robust' depends on which question the workload asks.
}
