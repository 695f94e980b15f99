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
//
//	go run ./examples/closedloop
package main

import (
	"fmt"
	"log"

	"edn"
)

func main() {
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

	// Healthy rate sweep, replay-matched: the harness asserts both
	// fabrics saw bit-equal offered request counts at every rate. The
	// rates straddle the dilated counterpart's knee — the EDN's extra
	// wiring keeps it comfortable well past where the counterpart
	// starts missing deadlines.
	rates := []float64{0.1, 0.2, 0.25}
	ednRes, dilRes, err := edn.MeasureClosedLoopPair(ednNet, dilNet, rates, lo, opts, shards)
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
	fmt.Println("Open-loop bandwidth (examples/lifetime) and closed-loop deadline")
	fmt.Println("credit rank the same two machines differently; which one is")
	fmt.Println("'more robust' depends on which question the workload asks.")
}
