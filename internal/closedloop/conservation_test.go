package closedloop

import (
	"fmt"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/xrand"
)

// The extended conservation invariant — request ledger, gauge recounts,
// cross-layer balance, and both fabrics' packet ledgers — must hold
// after every cycle under every depth/policy/retry/fault combination,
// including mid-epoch fault swaps that strand, park and orphan packets.
func TestConservationEverywhere(t *testing.T) {
	depths := []int{0, 2, queuesim.Unbounded}
	policies := []queuesim.Policy{queuesim.Backpressure, queuesim.Drop}
	retries := []RetryPolicy{RetryImmediate, RetryBackoff}
	for _, depth := range depths {
		for _, policy := range policies {
			for _, retry := range retries {
				for _, churn := range []bool{false, true} {
					name := fmt.Sprintf("depth=%d/%v/%v/churn=%v", depth, policy, retry, churn)
					t.Run("edn/"+name, func(t *testing.T) {
						conservationEDN(t, depth, policy, retry, churn)
					})
					t.Run("dilated/"+name, func(t *testing.T) {
						conservationDilated(t, depth, policy, retry, churn)
					})
				}
			}
		}
	}
}

func loopOptions(retry RetryPolicy) Options {
	return Options{
		Rate: 0.5, Window: 3, Timeout: 12, MaxAttempts: 4,
		Retry: retry, BackoffBase: 2, BackoffCap: 16,
		MaxBacklog: 8, Seed: 23,
	}
}

const (
	consCycles = 600
	epochEvery = 20
)

func conservationEDN(t *testing.T, depth int, policy queuesim.Policy, retry RetryPolicy, churn bool) {
	cfg := mustEDN(t, 4, 2, 2, 2) // 8x8 square
	qopts := queuesim.Options{Depth: depth, Policy: policy}
	fwd, rev := newQueuePair(t, cfg, qopts)
	loop, err := New(fwd, rev, cfg.Inputs(), cfg.Outputs(), loopOptions(retry))
	if err != nil {
		t.Fatal(err)
	}
	var proc *lifecycle.Process
	if churn {
		spec := lifecycle.Spec{Mode: faults.WireFaults, MTBF: 40, MTTR: 10}
		proc, err = lifecycle.New(cfg, spec, xrand.New(41))
		if err != nil {
			t.Fatal(err)
		}
	}
	live := make([]bool, cfg.Outputs())
	for c := 0; c < consCycles; c++ {
		if churn && c%epochEvery == 0 {
			masks, err := faults.Compile(cfg, proc.Step())
			if err != nil {
				t.Fatal(err)
			}
			if err := fwd.UpdateFaults(masks); err != nil {
				t.Fatal(err)
			}
			if err := rev.UpdateFaults(masks); err != nil {
				t.Fatal(err)
			}
			masks.ReachableOutputsInto(live)
			if err := loop.SetLiveOutputs(live); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := loop.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if err := loop.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if loop.Ledger().Issued == 0 {
		t.Fatal("nothing issued; the sweep tested nothing")
	}
	if churn && policy == queuesim.Drop && loop.Ledger().Timeouts == 0 {
		t.Fatal("churn under Drop should force timeouts")
	}
}

func conservationDilated(t *testing.T, depth int, policy queuesim.Policy, retry RetryPolicy, churn bool) {
	dcfg, err := dilated.New(2, 2, 3) // 8 ports, 2-dilated
	if err != nil {
		t.Fatal(err)
	}
	dopts := dilatedsim.Options{Depth: depth, Policy: policy}
	fwd, rev := newDilatedPair(t, dcfg, dopts)
	loop, err := New(fwd, rev, dcfg.Ports(), dcfg.Ports(), loopOptions(retry))
	if err != nil {
		t.Fatal(err)
	}
	var churnProc *lifecycle.Process
	if churn {
		churnProc, err = dilatedsim.NewChurn(dcfg, 40, 10, lifecycle.Exponential, xrand.New(43))
		if err != nil {
			t.Fatal(err)
		}
	}
	live := make([]bool, dcfg.Ports())
	for c := 0; c < consCycles; c++ {
		if churn && c%epochEvery == 0 {
			masks, err := dilatedsim.Compile(dcfg, churnProc.Step())
			if err != nil {
				t.Fatal(err)
			}
			if err := fwd.UpdateFaults(masks); err != nil {
				t.Fatal(err)
			}
			if err := rev.UpdateFaults(masks); err != nil {
				t.Fatal(err)
			}
			masks.ReachableOutputsInto(live)
			if err := loop.SetLiveOutputs(live); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := loop.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if err := loop.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if loop.Ledger().Issued == 0 {
		t.Fatal("nothing issued; the sweep tested nothing")
	}
}
