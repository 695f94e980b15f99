package main

import (
	"fmt"

	"edn"
)

// checkResult asserts the invariants every job's result must satisfy
// for any seed: the packet and request ledgers it exposes conserve,
// every rate lies in [0,1], and the measured cycle count is the one the
// spec asked for (which pins the wsc accounting to what actually ran).
func checkResult(spec edn.JobSpec, res *edn.JobResult) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	switch spec.Mode {
	case edn.JobLatency, edn.JobSaturation:
		want := 1
		if spec.Mode == edn.JobSaturation {
			want = len(spec.Loads)
		}
		if len(res.Points) != want {
			return fmt.Errorf("%d points, want %d", len(res.Points), want)
		}
		for i, p := range res.Points {
			if err := checkPoint(spec, p); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
	case edn.JobEstimate:
		e := res.Estimate
		if e == nil {
			return fmt.Errorf("no estimate section")
		}
		if err := inUnit("analytic_pa", e.AnalyticPA); err != nil {
			return err
		}
		cfg, _ := spec.Geometry.Compile()
		if err := inUnit("throughput per output", e.Throughput/float64(cfg.Outputs())); err != nil {
			return err
		}
		measured := e.SrcLive && e.DstReachable
		if measured && e.Cycles != spec.Sim.Cycles || !measured && e.Cycles != 0 {
			return fmt.Errorf("estimate ran %d cycles (src live %v, dst reachable %v, budget %d)",
				e.Cycles, e.SrcLive, e.DstReachable, spec.Sim.Cycles)
		}
		if !(0 <= e.LatencyP50 && e.LatencyP50 <= e.LatencyP95 && e.LatencyP95 <= e.LatencyP99 && e.LatencyP99 <= e.LatencyMax) {
			return fmt.Errorf("latency quantiles out of order: %v %v %v %v", e.LatencyP50, e.LatencyP95, e.LatencyP99, e.LatencyMax)
		}
	case edn.JobClosedLoopLifetime:
		c := res.ClosedLoopLifetime
		if c == nil {
			return fmt.Errorf("no closedloop_lifetime section")
		}
		if c.Epochs != spec.Lifetime.Epochs || c.Shards != spec.Sim.Shards {
			return fmt.Errorf("ran %d epochs on %d shards, want %d on %d", c.Epochs, c.Shards, spec.Lifetime.Epochs, spec.Sim.Shards)
		}
		l := c.Ledger
		if l.Offered != l.Shed+l.Backlogged+l.Issued {
			return fmt.Errorf("request ledger: offered %d != shed %d + backlogged %d + issued %d", l.Offered, l.Shed, l.Backlogged, l.Issued)
		}
		if l.Issued != l.Completed+l.GivenUp+l.InFlight+l.RetryWaiting {
			return fmt.Errorf("request ledger: issued %d != completed %d + given up %d + in flight %d + retry-waiting %d",
				l.Issued, l.Completed, l.GivenUp, l.InFlight, l.RetryWaiting)
		}
		// A timed-out attempt is given up or waits to re-issue, and leaves
		// the retry-wait state only by re-issuing.
		if l.Timeouts != l.Retries+l.GivenUp+l.RetryWaiting || l.Issued == 0 {
			return fmt.Errorf("request ledger: timeouts %d != retries %d + given up %d + retry-waiting %d (issued %d)",
				l.Timeouts, l.Retries, l.GivenUp, l.RetryWaiting, l.Issued)
		}
		for _, v := range []struct {
			name string
			x    float64
		}{
			{"goodput", c.GoodputOverall},
			{"sla_attainment", c.SLAAttainmentOverall},
			{"cost_of_downtime", c.CostOfDowntime},
			{"reachable", c.Reachable.MeanOverall()},
			{"dead_fraction", c.DeadFraction.MeanOverall()},
		} {
			if err := inUnit(v.name, v.x); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("no checks for mode %q", spec.Mode)
	}
	return nil
}

// checkPoint checks one latency/saturation point. The point's counters
// cover only its measurement window, so packets queued at the window's
// edges sit outside them: accepted minus delivered minus dropped must be
// a change in queue occupancy, bounded by the buffers of every shard.
func checkPoint(spec edn.JobSpec, p edn.LatencyResult) error {
	cycles := spec.Sim.Cycles
	if p.Cycles != cycles {
		return fmt.Errorf("measured %d cycles, want %d", p.Cycles, cycles)
	}
	if shards := min(spec.Sim.Shards, cycles); p.Shards != shards {
		return fmt.Errorf("merged %d shards, want %d", p.Shards, shards)
	}
	wires, err := wireCount(spec)
	if err != nil {
		return err
	}
	depth := int64(1)
	if spec.Queue != nil && spec.Queue.Depth > 0 {
		depth = int64(spec.Queue.Depth)
	}
	capacity := wires * (depth + 1) * int64(p.Shards)
	residue := p.Injected - p.Refused - p.Delivered - p.Dropped
	if p.Injected < 0 || p.Refused < 0 || p.Delivered < 0 || p.Dropped < 0 || residue > capacity || residue < -capacity {
		return fmt.Errorf("packet ledger: injected %d - refused %d - delivered %d - dropped %d = %d, beyond the %d buffered packets",
			p.Injected, p.Refused, p.Delivered, p.Dropped, residue, capacity)
	}
	cfg, _ := spec.Geometry.Compile()
	for _, v := range []struct {
		name string
		x    float64
	}{
		{"offered_rate", p.OfferedRate},
		{"throughput per output", p.Throughput / float64(cfg.Outputs())},
	} {
		if err := inUnit(v.name, v.x); err != nil {
			return err
		}
	}
	// Delivered over injected can pass 1 only by the packets warmup left
	// queued at the window's start.
	if p.Injected > 0 && (p.AcceptedFraction < 0 || p.AcceptedFraction > float64(p.Injected+capacity)/float64(p.Injected)) {
		return fmt.Errorf("accepted_fraction = %v beyond what %d injected and %d buffered packets allow", p.AcceptedFraction, p.Injected, capacity)
	}
	if !(0 <= p.LatencyP50 && p.LatencyP50 <= p.LatencyP95 && p.LatencyP95 <= p.LatencyP99 && p.LatencyP99 <= p.LatencyMax) {
		return fmt.Errorf("latency quantiles out of order: %v %v %v %v", p.LatencyP50, p.LatencyP95, p.LatencyP99, p.LatencyMax)
	}
	if (spec.Probe != nil) != (p.Observed != nil) {
		return fmt.Errorf("probe requested %v but observed report present %v", spec.Probe != nil, p.Observed != nil)
	}
	return nil
}

func inUnit(name string, x float64) error {
	if !(x >= 0 && x <= 1) {
		return fmt.Errorf("%s = %v outside [0,1]", name, x)
	}
	return nil
}

// checkExplain asserts an explained job delivered a non-empty anatomy
// report.
func checkExplain(spec edn.JobSpec, rep *edn.AnatomyReport) error {
	if spec.Explain == nil {
		if rep != nil {
			return fmt.Errorf("anatomy report without an explain section")
		}
		return nil
	}
	if rep == nil || rep.Cycles <= 0 || rep.Delivered.Count <= 0 {
		return fmt.Errorf("explain section produced no anatomy report")
	}
	return nil
}
