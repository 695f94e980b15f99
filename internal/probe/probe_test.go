package probe

import (
	"testing"

	"edn/internal/ringbuf"
)

// sampleSequence drives n offered injections through SampleInject and
// returns which offers were sampled.
func sampleSequence(opts Options, n int) []bool {
	p := New(opts)
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = p.SampleInject(i, i, int64(i)) >= 0
	}
	return out
}

func TestSamplingDeterministic(t *testing.T) {
	opts := Options{SampleEvery: 8, TraceCap: 4096, Seed: 7}
	a := sampleSequence(opts, 2000)
	b := sampleSequence(opts, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling diverged at offer %d", i)
		}
	}
	if diff := sampleSequence(Options{SampleEvery: 8, TraceCap: 4096, Seed: 8}, 2000); equalBools(a, diff) {
		t.Fatalf("different seeds produced identical sampling")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSamplingJitterBounds(t *testing.T) {
	const every = 8
	seq := sampleSequence(Options{SampleEvery: every, TraceCap: 1 << 16}, 10000)
	last := -1
	samples := 0
	for i, s := range seq {
		if !s {
			continue
		}
		samples++
		if last >= 0 {
			gap := i - last
			if gap < 1 || gap > 2*every-1 {
				t.Fatalf("gap %d outside [1, %d]", gap, 2*every-1)
			}
		}
		last = i
	}
	// Mean gap is `every`, so expect close to 10000/every samples.
	if samples < 10000/every/2 || samples > 10000/every*2 {
		t.Fatalf("sampled %d of 10000 offers, want ~%d", samples, 10000/every)
	}
}

func TestSampleEveryZeroDisablesTracing(t *testing.T) {
	p := New(Options{})
	if p.Tracing() {
		t.Fatalf("zero SampleEvery should disable tracing")
	}
	if rec := p.SampleInject(0, 0, 0); rec != -1 {
		t.Fatalf("SampleInject = %d, want -1", rec)
	}
	if got := p.TagInject(0, 42, 0); got != 42 {
		t.Fatalf("TagInject = %d, want packet unchanged", got)
	}
	// Heat still works on a trace-disabled probe.
	p.Bind(2, []string{"m"})
	p.AddStage(0, 1, 3)
	p.EndCycle()
	rep := p.Report()
	if rep.Sampled != 0 || len(rep.Traces) != 0 {
		t.Fatalf("trace-disabled probe reported traces: %+v", rep)
	}
	if got := rep.Heat.Series[0][1].Mean(0); got != 3 {
		t.Fatalf("heat mean = %g, want 3", got)
	}
}

// TestNegativeSizesTakeDefaults pins that negative sizes behave like
// zero ones instead of panicking: taken as given, they would reach
// make() in New (TraceCap, MaxHops) or index a negative heat bin (Bins,
// BinCycles).
func TestNegativeSizesTakeDefaults(t *testing.T) {
	p := New(Options{SampleEvery: 1, TraceCap: -1, MaxHops: -3, Bins: -2, BinCycles: -5})
	if rec := p.SampleInject(0, 0, 0); rec < 0 {
		t.Fatalf("default-sized ring refused the first sample")
	}
	p.Bind(1, []string{"m"})
	for c := 0; c < 3; c++ {
		p.AddStage(0, 0, 1)
		p.EndCycle()
	}
	if got := p.Report().Heat.Series[0][0].Len(); got != 64 {
		t.Fatalf("heat has %d bins, want the default 64", got)
	}
}

func TestRingNeverEvictsOpenRecords(t *testing.T) {
	p := New(Options{SampleEvery: 1, TraceCap: 2})
	r0 := p.SampleInject(0, 0, 0)
	r1 := p.SampleInject(1, 1, 0)
	if r0 < 0 || r1 < 0 {
		t.Fatalf("first two samples should land: %d %d", r0, r1)
	}
	if r := p.SampleInject(2, 2, 1); r != -1 {
		t.Fatalf("full ring of open records must refuse, got %d", r)
	}
	p.CloseRec(r0, 1, EvDeliver, 2)
	r3 := p.SampleInject(3, 3, 3)
	if r3 != r0 {
		t.Fatalf("closed slot should be reused: got %d, want %d", r3, r0)
	}
	rep := p.Report()
	if len(rep.Traces) != 2 {
		t.Fatalf("got %d traces, want 2 (one overwritten)", len(rep.Traces))
	}
	// The open record from injection 1 must have survived the overwrite.
	found := false
	for _, tr := range rep.Traces {
		if tr.Input == 1 && !tr.Done {
			found = true
		}
	}
	if !found {
		t.Fatalf("open record was evicted: %+v", rep.Traces)
	}
}

func TestHopDedupeAndTruncation(t *testing.T) {
	p := New(Options{SampleEvery: 1, MaxHops: 4})
	rec := p.SampleInject(0, 5, 0)
	p.HopRec(rec, 0, EvInject, 0)
	p.HopRec(rec, 1, EvBlock, 1)
	p.HopRec(rec, 1, EvBlock, 2) // identical (stage, event): deduped
	p.HopRec(rec, 1, EvBlock, 3)
	p.HopRec(rec, 1, EvTraverse, 4)
	p.HopRec(rec, 2, EvBlock, 5) // record full: dropped
	p.CloseRec(rec, 3, EvDeliver, 9)
	rep := p.Report()
	if len(rep.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(rep.Traces))
	}
	tr := rep.Traces[0]
	if len(tr.Hops) != 4 {
		t.Fatalf("got %d hops, want 4 (deduped + truncated): %+v", len(tr.Hops), tr.Hops)
	}
	last := tr.Hops[len(tr.Hops)-1]
	if last.Event != EvDeliver || last.Cycle != 9 || last.Stage != 3 {
		t.Fatalf("terminal hop must always land, got %+v", last)
	}
	if lat, ok := tr.Latency(); !ok || lat != 9 {
		t.Fatalf("Latency = %g,%v want 9,true", lat, ok)
	}
	// Hops after close are ignored.
	p.HopRec(rec, 3, EvBlock, 10)
	if got := len(p.Report().Traces[0].Hops); got != 4 {
		t.Fatalf("hop recorded after close: %d hops", got)
	}
}

func TestTagInjectKeysAndClose(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	pkt := uint64(77)
	tagged := p.TagInject(3, pkt, 5)
	if tagged&ringbuf.TraceBit == 0 {
		t.Fatalf("SampleEvery=1 must tag every packet")
	}
	if ringbuf.Dest(tagged) != ringbuf.Dest(pkt) {
		t.Fatalf("tagging changed Dest: %d vs %d", ringbuf.Dest(tagged), ringbuf.Dest(pkt))
	}
	// A second live packet with the identical packed word must be
	// skipped rather than confusing two flights.
	if again := p.TagInject(4, pkt, 6); again != pkt {
		t.Fatalf("duplicate key should skip sampling, got %#x", again)
	}
	p.Hop(tagged, 1, EvTraverse, 6)
	p.Hop(pkt, 1, EvBlock, 6) // untagged: ignored
	p.Close(tagged, 2, EvDeliver, 8)
	rep := p.Report()
	if len(rep.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(rep.Traces))
	}
	hops := rep.Traces[0].Hops
	if len(hops) != 3 || hops[0].Event != EvInject || hops[1].Event != EvTraverse || hops[2].Event != EvDeliver {
		t.Fatalf("unexpected hops %+v", hops)
	}
	// Key released on close: re-tagging the same word works again.
	if retag := p.TagInject(5, pkt, 9); retag&ringbuf.TraceBit == 0 {
		t.Fatalf("key not released after Close")
	}
}

func TestTraceLatencyOnlyOnSuccess(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	dropped := p.SampleInject(0, 0, 0)
	p.CloseRec(dropped, 1, EvDrop, 4)
	open := p.SampleInject(1, 1, 2)
	p.HopRec(open, 1, EvTraverse, 3)
	rep := p.Report()
	for _, tr := range rep.Traces {
		if _, ok := tr.Latency(); ok {
			t.Fatalf("non-delivered trace reported latency: %+v", tr)
		}
	}
	if h := rep.LatencyHistogram(); h.N() != 0 {
		t.Fatalf("latency histogram over failures has N=%d", h.N())
	}
}

func TestHeatFoldAndMerge(t *testing.T) {
	opts := Options{Bins: 2, BinCycles: 2}
	mk := func(scale float64) *Probe {
		p := New(opts)
		p.Bind(2, []string{"occ", "blk"})
		for c := 0; c < 5; c++ { // 5 cycles: bins get 2, 2, and 1 overflow into the last
			p.AddStage(0, 0, scale*float64(c))
			p.AddStage(1, 1, 1)
			p.EndCycle()
		}
		return p
	}
	rep := mk(1).Report()
	h := rep.Heat
	if h.Metric("blk") != 1 || h.Metric("nope") != -1 {
		t.Fatalf("Metric lookup broken")
	}
	// Bin 0 holds cycles {0,1}, bin 1 holds {2,3,4} (overflow folds in).
	if n := h.Series[0][0].N(0); n != 2 {
		t.Fatalf("bin 0 N = %d, want 2", n)
	}
	if n := h.Series[0][0].N(1); n != 3 {
		t.Fatalf("bin 1 N = %d, want 3 (overflow cycles pile into last bin)", n)
	}
	if got := h.Series[0][0].Mean(0); got != 0.5 {
		t.Fatalf("bin 0 mean = %g, want 0.5", got)
	}
	if got := h.Series[0][0].Mean(1); got != 3 {
		t.Fatalf("bin 1 mean = %g, want 3", got)
	}

	other := mk(3).Report()
	if err := rep.Merge(other); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Pooled bin 0: samples {0,1} and {0,3} -> mean 1.
	if got := rep.Heat.Series[0][0].Mean(0); got != 1 {
		t.Fatalf("pooled mean = %g, want 1", got)
	}

	mismatch := New(Options{Bins: 3})
	mismatch.Bind(2, []string{"occ", "blk"})
	if err := rep.Merge(mismatch.Report()); err == nil {
		t.Fatalf("shape mismatch must error")
	}
	named := New(opts)
	named.Bind(2, []string{"occ", "other"})
	if err := rep.Merge(named.Report()); err == nil {
		t.Fatalf("metric-name mismatch must error")
	}
}

func TestReportMergeConcatenatesTraces(t *testing.T) {
	a := New(Options{SampleEvery: 1})
	ra := a.SampleInject(0, 1, 0)
	a.CloseRec(ra, 1, EvDeliver, 3)
	b := New(Options{SampleEvery: 1})
	rb := b.SampleInject(2, 3, 5)
	b.CloseRec(rb, 1, EvDeliver, 9)

	rep := a.Report()
	if err := rep.Merge(b.Report()); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if rep.Sampled != 2 || len(rep.Traces) != 2 {
		t.Fatalf("merged sampled=%d traces=%d, want 2/2", rep.Sampled, len(rep.Traces))
	}
	if err := rep.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestEventCountsClampsStages(t *testing.T) {
	p := New(Options{SampleEvery: 1})
	rec := p.SampleInject(0, 0, 0)
	p.HopRec(rec, 0, EvInject, 0)
	p.HopRec(rec, 2, EvTraverse, 1)
	p.HopRec(rec, 9, EvRetry, 2) // clamped into last row
	p.CloseRec(rec, 3, EvDeliver, 3)
	counts := p.Report().EventCounts(3)
	if len(counts) != numEvents {
		t.Fatalf("got %d event rows, want %d", len(counts), numEvents)
	}
	if counts[EvInject][0] != 1 || counts[EvTraverse][2] != 1 || counts[EvDeliver][3] != 1 {
		t.Fatalf("misplaced counts: %+v", counts)
	}
	if counts[EvRetry][3] != 1 {
		t.Fatalf("stage 9 should clamp to 3: %+v", counts[EvRetry])
	}
}

func TestEventStringAndTerminal(t *testing.T) {
	if EvPark.String() != "park" || EvGiveUp.String() != "giveup" {
		t.Fatalf("event names wrong: %s %s", EvPark, EvGiveUp)
	}
	if Event(200).String() == "" {
		t.Fatalf("out-of-range event must still print")
	}
	for _, ev := range []Event{EvDrop, EvStrand, EvDeliver, EvComplete, EvGiveUp} {
		if !ev.Terminal() {
			t.Fatalf("%s should be terminal", ev)
		}
	}
	for _, ev := range []Event{EvInject, EvTraverse, EvBlock, EvPark, EvIssue, EvTimeout, EvRetry} {
		if ev.Terminal() {
			t.Fatalf("%s should not be terminal", ev)
		}
	}
}
