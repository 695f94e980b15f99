package closedloop

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"edn/internal/anatomy"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/ringbuf"
	"edn/internal/xrand"
)

// cycleScan is the Cycle that the event lists replaced, kept as the
// oracle: a timeout scan over every slot, a window scan over every
// source's slots and a reply scan over every return input, each cycle.
// It reads and writes slot state, the stage lists, the ledgers and the
// request vectors only, so it runs on a Loop built by New; the event
// bookkeeping the delivery hooks do on such a loop goes unread. An
// attempt times out Timeout cycles after issuedAt, compared by age as
// Cycle does (the slot's deadline field, issuedAt + Timeout, overflowed
// for a Timeout near MaxInt64).
func (l *Loop) cycleScan() (CycleStats, error) {
	l.now++
	l.cycle = CycleStats{}

	// Demand arrivals. One coin per source per cycle from the demand
	// stream, drawn in source order regardless of fabric, keeps two
	// same-seed loops bit-identical in what they offer. The coins share
	// no draw with the destinations (destRng), so Arrivals takes them all
	// first, and the arriving sources then draw their destinations in
	// source order, as a coin-then-destination loop per source would.
	for _, i := range Arrivals(l.arrived, l.demand, l.demandRng) {
		l.led.Offered++
		if !l.backlog.HasSpace(int(i), l.opts.MaxBacklog) {
			l.led.Shed++
			l.cycle.Shed++
			continue
		}
		l.backlog.Push(int(i), ringbuf.Pack(l.drawDest(), l.now))
		l.led.Backlogged++
		l.cycle.Arrived++
	}

	// Timeout scan: write off every attempt past its deadline, wherever
	// it is in the round trip.
	for s := range l.slots {
		sl := &l.slots[s]
		if sl.state == slotFree || sl.state == slotRetry || l.now-sl.issuedAt < int64(l.opts.Timeout) {
			continue
		}
		switch sl.state {
		case slotFwd:
			l.listRemove(l.fwdHead, l.fwdTail, int(sl.dest), int32(s))
		case slotService:
			l.listRemove(l.svcHead, l.svcTail, int(sl.dest)/l.ratio, int32(s))
		case slotReply:
			l.listRemove(l.repHead, l.repTail, int(sl.src), int32(s))
		}
		l.led.Timeouts++
		l.led.InFlight--
		l.cycle.TimedOut++
		if l.probe != nil {
			l.probe.AddStage(pmTimeouts, 0, 1)
			l.probe.HopRec(sl.trace, int(sl.attempts), probe.EvTimeout, l.now)
		}
		if l.opts.MaxAttempts > 0 && int(sl.attempts) >= l.opts.MaxAttempts {
			sl.state = slotFree
			l.led.GivenUp++
			l.cycle.GivenUp++
			if l.probe != nil {
				l.probe.CloseRec(sl.trace, int(sl.attempts), probe.EvGiveUp, l.now)
				sl.trace = -1
			}
			if l.anat != nil {
				l.anat.ReqGiveUp(int(sl.src), int(sl.dest), sl.createdAt, l.now)
			}
			continue
		}
		sl.state = slotRetry
		sl.nextRetry = l.now + l.retryDelay(int(sl.attempts))
		l.led.RetryWaiting++
	}

	// Forward issue: each source injects at most one request per cycle —
	// the due retry with the earliest deadline first, else the oldest
	// backlogged demand if a window slot is free.
	for i := 0; i < l.inputs; i++ {
		l.destFwd[i] = NoRequest
		base := i * l.opts.Window
		pick, free := -1, -1
		for w := 0; w < l.opts.Window; w++ {
			sl := &l.slots[base+w]
			switch {
			case sl.state == slotRetry && sl.nextRetry <= l.now &&
				(pick < 0 || sl.nextRetry < l.slots[pick].nextRetry):
				pick = base + w
			case sl.state == slotFree && free < 0:
				free = base + w
			}
		}
		if pick < 0 && (free < 0 || l.backlog.Len(i) == 0) {
			continue
		}
		if !l.fwd.InputFree(i) {
			continue
		}
		var s int32
		if pick >= 0 {
			s = int32(pick)
			l.led.RetryWaiting--
			l.led.Retries++
			l.cycle.Retried++
		} else {
			p := l.backlog.Pop(i)
			l.led.Backlogged--
			s = int32(free)
			sl := &l.slots[s]
			sl.src = int32(i)
			sl.dest = int32(ringbuf.Dest(p))
			sl.createdAt = l.now - int64(uint32(l.now)-uint32(p>>32))
			sl.attempts = 0
			l.led.Issued++
			l.cycle.Issued++
		}
		sl := &l.slots[s]
		sl.state = slotFwd
		sl.attempts++
		sl.issuedAt = l.now // the engine stamps injections with this cycle
		if sl.attempts == 1 {
			sl.firstAt = l.now
		}
		l.led.InFlight++
		l.listAppend(l.fwdHead, l.fwdTail, int(sl.dest), s)
		l.destFwd[i] = int(sl.dest)
		if l.probe != nil {
			if pick >= 0 {
				l.probe.HopRec(sl.trace, int(sl.attempts), probe.EvRetry, l.now)
			} else {
				sl.trace = -1
				if rec := l.probe.SampleInject(i, int(sl.dest), l.now); rec >= 0 {
					sl.trace = rec
					l.probe.HopRec(rec, 1, probe.EvIssue, l.now)
				}
			}
		}
	}
	if _, err := l.fwd.Cycle(l.destFwd); err != nil {
		return CycleStats{}, err
	}

	// Reply issue: each return input forwards the head of its service
	// queue once service is complete — head-of-line, modeling the
	// port-group concentrator as a single reply injector.
	for r := 0; r < l.inputs; r++ {
		l.destRev[r] = NoRequest
		h := l.svcHead[r]
		if h < 0 || l.slots[h].readyAt > l.now || !l.rev.InputFree(r) {
			continue
		}
		sl := &l.slots[h]
		l.listRemove(l.svcHead, l.svcTail, r, h)
		sl.state = slotReply
		sl.replyAt = l.now
		l.listAppend(l.repHead, l.repTail, int(sl.src), h)
		l.destRev[r] = int(sl.src) * l.ratio
	}
	if _, err := l.rev.Cycle(l.destRev); err != nil {
		return CycleStats{}, err
	}
	if l.probe != nil {
		l.probe.AddStage(pmBacklogged, 0, float64(l.led.Backlogged))
		l.probe.AddStage(pmInFlight, 0, float64(l.led.InFlight))
		l.probe.AddStage(pmRetryWaiting, 0, float64(l.led.RetryWaiting))
		l.probe.EndCycle()
	}
	return l.cycle, nil
}

// recorder logs what a loop asks of one engine, in call order: each
// InputFree query's input, and each Cycle's request vector behind a -2
// marker.
type recorder struct {
	Engine
	log *[]int
}

func (r recorder) InputFree(i int) bool {
	*r.log = append(*r.log, i)
	return r.Engine.InputFree(i)
}

func (r recorder) Cycle(dest []int) (queuesim.CycleStats, error) {
	*r.log = append(append(*r.log, -2), dest...)
	return r.Engine.Cycle(dest)
}

// faultEngine is a packet engine whose fault masks can be swapped.
type faultEngine interface {
	Engine
	UpdateFaults(*faults.Masks) error
}

// twinFabric builds engines of one geometry and a wire-churn stream
// over it.
type twinFabric struct {
	name            string
	inputs, outputs int
	engine          func(queuesim.Options) (faultEngine, error)
	churn           func(seed uint64) (func() (*faults.Masks, error), error)
}

// twinFabrics are the oracle's geometries: a square EDN, an EDN with
// twice as many memory ports as sources, and a 2-dilated delta.
func twinFabrics(t testing.TB) []twinFabric {
	t.Helper()
	var fabs []twinFabric
	for _, g := range [][4]int{{4, 2, 2, 2}, {8, 4, 4, 1}} {
		cfg := mustEDN(t, g[0], g[1], g[2], g[3])
		fabs = append(fabs, twinFabric{
			name:   cfg.String(),
			inputs: cfg.Inputs(), outputs: cfg.Outputs(),
			engine: func(q queuesim.Options) (faultEngine, error) { return queuesim.New(cfg, q) },
			churn: func(seed uint64) (func() (*faults.Masks, error), error) {
				proc, err := lifecycle.New(cfg, lifecycle.Spec{Mode: faults.WireFaults, MTBF: 40, MTTR: 10}, xrand.New(seed))
				if err != nil {
					return nil, err
				}
				return func() (*faults.Masks, error) { return faults.Compile(cfg, proc.Step()) }, nil
			},
		})
	}
	dcfg, err := dilated.New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	fabs = append(fabs, twinFabric{
		name:   dcfg.String(),
		inputs: dcfg.Ports(), outputs: dcfg.Ports(),
		engine: func(q queuesim.Options) (faultEngine, error) { return dilatedsim.New(dcfg, q) },
		churn: func(seed uint64) (func() (*faults.Masks, error), error) {
			proc, err := dilatedsim.NewChurn(dcfg, 40, 10, lifecycle.Exponential, xrand.New(seed))
			if err != nil {
				return nil, err
			}
			return func() (*faults.Masks, error) { return dilatedsim.Compile(dcfg, proc.Step()) }, nil
		},
	})
	if fabs[1].outputs != 2*fabs[1].inputs {
		t.Fatalf("%s: %d memory ports for %d sources, want twice as many", fabs[1].name, fabs[1].outputs, fabs[1].inputs)
	}
	return fabs
}

// twinCase is one oracle run: Cycle and cycleScan on two loops over
// identical fabrics, churned identically (churn 0: no churn).
type twinCase struct {
	fab    twinFabric
	q      queuesim.Options
	opts   Options
	churn  uint64
	cycles int
}

const twinEpoch = 25 // cycles between fault-mask swaps

// runTwins drives loop 0 with cycleScan and loop 1 with Cycle, each
// with a probe sampling every other issue and an anatomy collector, and
// requires after every cycle equal CycleStats, Ledgers and SLA credit,
// equal InputFree and Cycle call sequences on both fabrics, equal
// completed-request samples, and loop 1's event state to match its slot
// state; at the end, equal latency histograms and byte-equal probe and
// anatomy reports. It returns loop 1's Ledger.
func runTwins(t testing.TB, c twinCase) Ledger {
	t.Helper()
	var (
		logs    [2][2][]int
		engines [2][2]faultEngine
		loops   [2]*Loop
		probes  [2]*probe.Probe
		anats   [2]*anatomy.Collector
		reqs    [2][]anatomy.RequestSample
		err     error
	)
	for k := range loops {
		for e := range engines[k] {
			if engines[k][e], err = c.fab.engine(c.q); err != nil {
				t.Fatal(err)
			}
		}
		fwd := recorder{engines[k][0], &logs[k][0]}
		rev := recorder{engines[k][1], &logs[k][1]}
		if loops[k], err = New(fwd, rev, c.fab.inputs, c.fab.outputs, c.opts); err != nil {
			t.Fatal(err)
		}
		probes[k] = probe.New(probe.Options{SampleEvery: 2, TraceCap: 64, Bins: 8, BinCycles: 50})
		loops[k].SetProbe(probes[k])
		samples := &reqs[k]
		anats[k] = anatomy.New(anatomy.Options{OnRequest: func(r anatomy.RequestSample) { *samples = append(*samples, r) }})
		loops[k].SetAnatomy(anats[k])
	}
	var step func() (*faults.Masks, error)
	if c.churn != 0 {
		if step, err = c.fab.churn(c.churn); err != nil {
			t.Fatal(err)
		}
	}
	live := make([]bool, c.fab.outputs)
	for cyc := 0; cyc < c.cycles; cyc++ {
		if step != nil && cyc%twinEpoch == 0 {
			m, err := step()
			if err != nil {
				t.Fatal(err)
			}
			for k := range engines {
				for _, e := range engines[k] {
					if err := e.UpdateFaults(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.ReachableOutputsInto(live)
			for _, l := range loops {
				if err := l.SetLiveOutputs(live); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := loops[0].cycleScan()
		if err != nil {
			t.Fatalf("cycle %d: scan: %v", cyc, err)
		}
		got, err := loops[1].Cycle()
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if got != want {
			t.Fatalf("cycle %d: CycleStats %+v, scan %+v", cyc, got, want)
		}
		if g, w := loops[1].Ledger(), loops[0].Ledger(); g != w {
			t.Fatalf("cycle %d: ledger %+v, scan %+v", cyc, g, w)
		}
		if g, w := loops[1].SLACredit(), loops[0].SLACredit(); g != w {
			t.Fatalf("cycle %d: SLA credit %v, scan %v", cyc, g, w)
		}
		for e, name := range []string{"forward", "return"} {
			if !slices.Equal(logs[1][e], logs[0][e]) {
				t.Fatalf("cycle %d: %s fabric calls %v, scan %v", cyc, name, logs[1][e], logs[0][e])
			}
			logs[0][e], logs[1][e] = logs[0][e][:0], logs[1][e][:0]
		}
		if !slices.Equal(reqs[1], reqs[0]) {
			t.Fatalf("cycle %d: completed requests %v, scan %v", cyc, reqs[1], reqs[0])
		}
		if err := loops[1].CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if err := checkEvents(loops[1]); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if !reflect.DeepEqual(loops[1].Latency(), loops[0].Latency()) {
		t.Fatal("latency histograms differ")
	}
	for _, rep := range []struct {
		name string
		f    func(k int) any
	}{
		{"probe", func(k int) any { return probes[k].Report() }},
		{"anatomy", func(k int) any { return anats[k].Report() }},
	} {
		var b [2][]byte
		for k := range b {
			if b[k], err = json.Marshal(rep.f(k)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(b[1], b[0]) {
			t.Fatalf("%s reports differ:\n%s\nscan:\n%s", rep.name, b[1], b[0])
		}
	}
	return loops[1].Ledger()
}

// TestCycleMatchesScan pins Cycle to the scan loop it replaced, over
// the three geometries, every depth and policy, both retry policies
// with and without a give-up limit, healthy and under wire churn.
func TestCycleMatchesScan(t *testing.T) {
	var total Ledger
	for _, fab := range twinFabrics(t) {
		for _, depth := range []int{0, 2, 4, queuesim.Unbounded} {
			for _, policy := range []queuesim.Policy{queuesim.Backpressure, queuesim.Drop} {
				for _, retry := range []RetryPolicy{RetryImmediate, RetryBackoff} {
					for _, attempts := range []int{0, 3} {
						for _, churn := range []uint64{0, 41} {
							name := fmt.Sprintf("%s/depth=%d/%v/%v/attempts=%d/churn=%d", fab.name, depth, policy, retry, attempts, churn)
							t.Run(name, func(t *testing.T) {
								led := runTwins(t, twinCase{
									fab: fab,
									q:   queuesim.Options{Depth: depth, Policy: policy},
									opts: Options{
										Rate: 0.5, Window: 3, Timeout: 12, MaxAttempts: attempts,
										Retry: retry, BackoffBase: 2, BackoffCap: 16, MaxBacklog: 8,
										SLA: SLA{Deadline: 10, Zero: 20}, Seed: 23,
									},
									churn:  churn,
									cycles: 400,
								})
								total.Completed += led.Completed
								total.Retries += led.Retries
								total.GivenUp += led.GivenUp
								total.Stale += led.Stale
								total.Orphans += led.Orphans
							})
						}
					}
				}
			}
		}
	}
	if total.Completed == 0 || total.Retries == 0 || total.GivenUp == 0 || total.Stale == 0 || total.Orphans == 0 {
		t.Fatalf("the grid missed an outcome: %+v", total)
	}
}

// FuzzLoop runs Cycle against cycleScan under fuzzed options: window
// 1-8, timeout 1-64, any rate, either retry policy, backoff base and
// cap, give-up limit, backlog bound, depth, policy, fabric, and a churn
// seed (0: no churn) that also seeds the loop.
func FuzzLoop(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(11), uint8(128), uint8(1), uint8(1), uint8(14), uint8(4), uint8(7), uint8(1), false, uint64(41))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(255), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), true, uint64(0))
	f.Add(uint8(2), uint8(7), uint8(63), uint8(90), uint8(1), uint8(5), uint8(63), uint8(0), uint8(15), uint8(4), true, uint64(7))
	fabs := twinFabrics(f)
	f.Fuzz(func(t *testing.T, fabric, window, timeout, rate, retry, base, span, attempts, backlog, depth uint8, drop bool, churn uint64) {
		c := twinCase{
			fab: fabs[int(fabric)%len(fabs)],
			q:   queuesim.Options{Depth: []int{0, 1, 2, 4, queuesim.Unbounded}[depth%5]},
			opts: Options{
				Window:      1 + int(window%8),
				Timeout:     1 + int(timeout%64),
				Rate:        float64(rate) / 255,
				Retry:       RetryPolicy(retry % 2),
				BackoffBase: 1 + int(base%16),
				MaxAttempts: int(attempts % 6),
				MaxBacklog:  1 + int(backlog%16),
				Seed:        churn + 1,
			},
			churn:  churn,
			cycles: 300,
		}
		c.opts.BackoffCap = c.opts.BackoffBase + int(span%64)
		if drop {
			c.q.Policy = queuesim.Drop
		}
		runTwins(t, c)
	})
}

// checkEvents recounts a loop's event state from its slot state: the
// free, due, work and serving bitmaps bit for bit (no bit set past the
// last slot or input), the deadline list as exactly the live attempts in
// issue order, ascending slot order within a cycle, and the retry wheel
// as exactly the retries not yet due, each in its bucket.
func checkEvents(l *Loop) error {
	bit := func(words []uint64, k int) bool { return words[k>>6]>>(k&63)&1 != 0 }
	bitmap := func(name string, words []uint64, n int, want func(k int) bool) error {
		for k := range len(words) * 64 {
			if w := k < n && want(k); bit(words, k) != w {
				return fmt.Errorf("closedloop: %s bit %d is %v, state says %v", name, k, !w, w)
			}
		}
		return nil
	}
	due := func(s int) bool {
		return l.slots[s].state == slotRetry && l.slots[s].nextRetry <= l.now
	}
	if err := bitmap("free", l.free, len(l.slots), func(s int) bool { return l.slots[s].state == slotFree }); err != nil {
		return err
	}
	if err := bitmap("due", l.due, len(l.slots), due); err != nil {
		return err
	}
	if err := bitmap("work", l.work, l.inputs, func(i int) bool {
		lo, hi := l.window(i)
		var anyDue, anyFree bool
		for s := lo; s < hi; s++ {
			anyDue = anyDue || due(s)
			anyFree = anyFree || l.slots[s].state == slotFree
		}
		return anyDue || l.backlog.Len(i) > 0 && anyFree
	}); err != nil {
		return err
	}
	if err := bitmap("serving", l.serving, l.inputs, func(r int) bool { return l.svcHead[r] >= 0 }); err != nil {
		return err
	}

	live := 0
	for s := range l.slots {
		switch l.slots[s].state {
		case slotFwd, slotService, slotReply:
			live++
		}
	}
	n, prev := 0, int32(-1)
	for s := l.liveHead; s >= 0; prev, s = s, l.slots[s].newer {
		sl := &l.slots[s]
		switch {
		case n == live:
			return fmt.Errorf("closedloop: deadline list longer than the %d live attempts", live)
		case sl.state != slotFwd && sl.state != slotService && sl.state != slotReply:
			return fmt.Errorf("closedloop: slot %d (state %d) on the deadline list", s, sl.state)
		case sl.older != prev:
			return fmt.Errorf("closedloop: deadline list slot %d links back to %d, not %d", s, sl.older, prev)
		case prev >= 0 && (sl.issuedAt < l.slots[prev].issuedAt || sl.issuedAt == l.slots[prev].issuedAt && s <= prev):
			return fmt.Errorf("closedloop: deadline list has slot %d (issued %d) after slot %d (issued %d)", s, sl.issuedAt, prev, l.slots[prev].issuedAt)
		case l.now-sl.issuedAt >= int64(l.opts.Timeout):
			return fmt.Errorf("closedloop: slot %d outlived its deadline", s)
		}
		n++
	}
	if n != live || l.liveTail != prev {
		return fmt.Errorf("closedloop: deadline list holds %d of %d live attempts (tail %d, want %d)", n, live, l.liveTail, prev)
	}

	waiting := 0
	for s := range l.slots {
		if l.slots[s].state == slotRetry && !due(s) {
			waiting++
		}
	}
	n = 0
	for b, h := range l.wheel {
		for s := h; s >= 0; s = l.slots[s].next {
			sl := &l.slots[s]
			switch {
			case n == waiting:
				return fmt.Errorf("closedloop: retry wheel longer than the %d retries not yet due", waiting)
			case sl.state != slotRetry || due(int(s)):
				return fmt.Errorf("closedloop: slot %d (state %d, retry at %d) on the wheel at cycle %d", s, sl.state, sl.nextRetry, l.now)
			case int(sl.nextRetry&(wheelSize-1)) != b:
				return fmt.Errorf("closedloop: slot %d retrying at %d sits in bucket %d", s, sl.nextRetry, b)
			}
			n++
		}
	}
	if n != waiting {
		return fmt.Errorf("closedloop: retry wheel holds %d of %d retries not yet due", n, waiting)
	}
	return nil
}
