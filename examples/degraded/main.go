// Degraded mode: what does EDN expansion buy when the network starts
// dying?
//
// Theorem 2 gives EDN(a,b,c,l) exactly c^l equivalent paths per
// source/destination pair. The bandwidth story of that freedom is in
// examples/latency; this example tells the survival story. Interstage
// wires die at a rising fault fraction and the router grants around
// them: a bucket with a dead wire keeps carrying traffic on its
// siblings, so the expanded EDN(4,4,2,3) (two wires per bucket, 8 paths
// per pair) sheds bandwidth gracefully, while the same fraction applied
// to its delta-network corner EDN(4,4,1,2) (single path) severs whole
// routes — its reachable-output fraction collapses with the wires.
//
//	go run ./examples/degraded
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
}
