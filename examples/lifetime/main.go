// Lifetime churn: what does EDN expansion buy over a machine's whole
// service life?
//
// examples/degraded froze a fault set and measured the wreckage; real
// machines live under continuous churn — components fail stochastically
// and repair crews bring them back. This example runs the expanded
// EDN(4,4,2,3) through such a lifetime (exponential MTBF/MTTR per
// interstage wire, ~20% of wires dead in steady state) and compares its
// lifetime-average bandwidth against the same family's delta-network
// corner EDN(4,4,1,2) running with NO faults at all. The expanded
// network's spare bucket wires absorb the churn so well that even while
// perpetually broken it outdelivers the pristine single-path delta —
// the static dominance result of examples/degraded extended to the
// time axis.
//
//	go run ./examples/lifetime
package main

import (
	"fmt"
	"log"

	"edn"
)

func main() {
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
}
