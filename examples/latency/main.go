// Latency-vs-load: what does EDN expansion buy a *buffered* network?
//
// The paper argues expansion (c > 1) absorbs contention in a
// circuit-switched network. This example asks the queueing-side
// question: with identical 4x4-bucket switches, identical 16 input
// ports and identical FIFO depth, how do queueing delay and saturation
// throughput compare between the expanded EDN(4,4,2,3) (16 -> 128, two
// wires per bucket, 8 paths per pair) and its delta-network corner
// EDN(4,4,1,2) (16 -> 16, single path)?
//
//	go run ./examples/latency
package main

import (
	"fmt"
	"log"

	"edn"
)

func main() {
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

	for _, cfg := range []edn.Config{expanded, delta} {
		results, err := edn.SaturationSweep(edn.EDNNet{Config: cfg, Queue: qopts}, loads, nil, opts, 0)
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
}
