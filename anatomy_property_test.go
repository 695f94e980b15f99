package edn

import (
	"fmt"
	"reflect"
	"testing"

	"edn/internal/anatomy"
)

// TestAnatomyConservation pins the attribution conservation law on
// both packet engines across the depth × policy × fault-churn grid:
// every closed packet's wait + block + service equals its end-to-end
// latency under the engine's convention — Closed-Inject for buffered
// depths, Closed-Inject+1 for the depth-0 resubmission corner (whose
// latency convention counts the injection cycle) — for every class
// (delivered, dropped, stranded), and the per-class report totals are
// exactly the sums of the per-packet samples.
func TestAnatomyConservation(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, depth := range []int{0, 1, 4} {
		for _, bp := range []struct {
			name   string
			policy QueuePolicy
		}{{"backpressure", QueueBackpressure}, {"drop", QueueDrop}} {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("depth%d/%s/faulted=%v", depth, bp.name, faulted)
				t.Run("queue/"+name, func(t *testing.T) {
					net, err := NewQueueNetwork(cfg, QueueOptions{Depth: depth, Policy: bp.policy})
					if err != nil {
						t.Fatal(err)
					}
					churn := func(c int) error {
						if faulted && c == 100 {
							m, err := CompileFaults(cfg, BernoulliFaults(cfg, FaultWires, 0.1, NewRand(29)))
							if err != nil {
								return err
							}
							return net.UpdateFaults(m)
						}
						return nil
					}
					runConservation(t, net.SetAnatomy, func(dest []int) error {
						_, err := net.Cycle(dest)
						return err
					}, net, cfg.Inputs(), cfg.Outputs(), depth == 0, churn)
				})
				t.Run("dilated/"+name, func(t *testing.T) {
					net, err := NewDilatedQueueNetwork(dcfg, DilatedQueueOptions{Depth: depth, Policy: bp.policy})
					if err != nil {
						t.Fatal(err)
					}
					churn := func(c int) error {
						if faulted && c == 100 {
							m, err := CompileDilatedMasks(dcfg, BernoulliDilatedSubWires(dcfg, 0.1, NewRand(29)))
							if err != nil {
								return err
							}
							return net.UpdateFaults(m)
						}
						return nil
					}
					runConservation(t, net.SetAnatomy, func(dest []int) error {
						_, err := net.Cycle(dest)
						return err
					}, net, dcfg.Ports(), dcfg.Ports(), depth == 0, churn)
				})
			}
		}
	}
}

// drainer repairs a packet engine's faults and runs it empty.
type drainer interface {
	UpdateFaults(*FaultMasks) error
	Drain(maxCycles int) (int, error)
}

// runConservation drives 300 cycles of uniform 0.9 traffic with a
// collector attached whose OnPacket asserts per-packet conservation,
// then cross-checks the report's class totals against the accumulated
// samples. It then repairs the faults and drains the engine, and
// requires the per-stage ledger to balance against the per-class one:
// every packet has closed, so each bin's stage sum is its class sum,
// fault parks are a share of the blocked cycles, and Report is a
// read-only snapshot throughout.
func runConservation(t *testing.T, attach func(*AnatomyCollector), cycle func([]int) error, eng drainer, inputs, outputs int, depth0 bool, hook func(int) error) {
	t.Helper()
	var sums [3]AnatomyClassTotals
	violations := 0
	opts := AnatomyOptions{OnPacket: func(s anatomy.PacketSample) {
		want := s.Closed - s.Inject
		if depth0 {
			want++
		}
		if got := s.Wait + s.Block + s.Service; got != want {
			violations++
			if violations <= 3 {
				t.Errorf("conservation violated: %+v attributed %d, latency %d", s, got, want)
			}
		}
		if s.Wait < 0 || s.Block < 0 || s.Service < 0 {
			t.Errorf("negative attribution: %+v", s)
		}
		agg := &sums[s.Class]
		agg.Count++
		agg.Wait += s.Wait
		agg.Block += s.Block
		agg.Service += s.Service
	}}
	col := NewAnatomyCollector(opts)
	attach(col)

	rng := NewRand(17)
	gen := Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, inputs)
	for c := 0; c < 300; c++ {
		if err := hook(c); err != nil {
			t.Fatal(err)
		}
		gen.GenerateInto(dest, outputs)
		if err := cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	report := func() *AnatomyReport {
		t.Helper()
		rep := col.Report()
		if again := col.Report(); !reflect.DeepEqual(rep, again) {
			t.Fatalf("consecutive reports differ:\n%+v\n%+v", rep, again)
		}
		for class, got := range []AnatomyClassTotals{rep.Delivered, rep.Dropped, rep.Stranded} {
			if got != sums[class] {
				t.Fatalf("class %d totals %+v != sample sums %+v", class, got, sums[class])
			}
		}
		return rep
	}
	if rep := report(); rep.Delivered.Count == 0 {
		t.Fatalf("nothing delivered; the test saw no traffic")
	}

	if err := eng.UpdateFaults(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Drain(10000); err != nil {
		t.Fatal(err)
	}
	rep := report()
	var stages, classes AnatomyClassTotals
	for _, st := range rep.PerStage {
		stages.Wait += st.Wait
		stages.Block += st.Block
		stages.Service += st.Service
	}
	for _, ct := range []AnatomyClassTotals{rep.Delivered, rep.Dropped, rep.Stranded} {
		classes.Wait += ct.Wait
		classes.Block += ct.Block
		classes.Service += ct.Service
	}
	if stages != classes {
		t.Fatalf("per-stage wait/block/service %+v != per-class %+v", stages, classes)
	}
	if stages.Block < rep.FaultParked {
		t.Fatalf("fault parks %d exceed the %d blocked cycles", rep.FaultParked, stages.Block)
	}
}

// TestAnatomyClosedLoopTelescoping pins the closed-loop conservation
// law: every completed request's five-way split (client-queue,
// retry-wait, forward-fabric, service, reply-fabric) telescopes
// exactly to its total completion time, the components are ordered and
// non-negative, and the report's aggregate split is the sum of the
// per-request samples.
func TestAnatomyClosedLoopTelescoping(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("faulted=%v", faulted), func(t *testing.T) {
			mkFabric := func() ClosedLoopEngine {
				n, err := NewQueueNetwork(cfg, QueueOptions{Depth: 1, Policy: QueueDrop})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			fwd := mkFabric()
			lo := ClosedLoopOptions{
				Window: 4, Rate: 0.5, Timeout: 8, MaxAttempts: 4,
				Retry: RetryBackoff, BackoffBase: 2, BackoffCap: 8, Seed: 3,
			}
			loop, err := NewClosedLoop(fwd, mkFabric(), cfg.Inputs(), cfg.Outputs(), lo)
			if err != nil {
				t.Fatal(err)
			}
			var want RequestTimeSplit
			opts := AnatomyOptions{OnRequest: func(s anatomy.RequestSample) {
				cq := s.FirstIssue - s.Created
				rw := s.LastIssue - s.FirstIssue
				fw := s.Arrive - s.LastIssue
				sv := s.Reply - s.Arrive
				rp := s.Done - s.Reply
				if cq < 0 || rw < 0 || fw < 0 || sv <= 0 || rp < 0 {
					t.Errorf("malformed split: %+v", s)
				}
				if cq+rw+fw+sv+rp != s.Done-s.Created {
					t.Errorf("split does not telescope: %+v", s)
				}
				want.Completed++
				want.ClientQueue += cq
				want.RetryWait += rw
				want.Forward += fw
				want.Service += sv
				want.Reply += rp
			}}
			col := NewAnatomyCollector(opts)
			loop.SetAnatomy(col)
			for c := 0; c < 400; c++ {
				if faulted && c == 150 {
					m, err := CompileFaults(cfg, BernoulliFaults(cfg, FaultWires, 0.1, NewRand(29)))
					if err != nil {
						t.Fatal(err)
					}
					if err := fwd.(*QueueNetwork).UpdateFaults(m); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := loop.Cycle(); err != nil {
					t.Fatal(err)
				}
			}
			rep := col.Report()
			if rep.Requests == nil || rep.Requests.Completed == 0 {
				t.Fatalf("no completed requests observed")
			}
			got := *rep.Requests
			got.GiveUps, got.GiveUpTime = 0, 0
			if got != want {
				t.Fatalf("report split %+v != sample sums %+v", got, want)
			}
			if led := loop.Ledger(); led.Completed != rep.Requests.Completed {
				t.Fatalf("split covers %d completions, ledger says %d", rep.Requests.Completed, led.Completed)
			}
			if lat := loop.Latency(); int64(lat.N()) == rep.Requests.Completed {
				// The histogram's total mass and the split's total must
				// agree: both are the summed completion times.
				if int64(lat.Sum()) != rep.Requests.Total() {
					t.Fatalf("split total %d != latency mass %.0f", rep.Requests.Total(), lat.Sum())
				}
			}
		})
	}
}
