package netcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// sized returns a build that yields v at the given payload size and
// counts its invocations in *calls.
func sized(v any, bytes int64, calls *int) func() (any, int64, error) {
	return func() (any, int64, error) {
		*calls++
		return v, bytes, nil
	}
}

// resident reports whether key is cached. A hit refreshes the entry's
// recency like any hit; on a miss the probe build fails, and a failed
// build is never retained, so the probe leaves the cache's contents
// unchanged.
func resident(c *Cache, key string) bool {
	errProbe := errors.New("probe")
	_, err := c.GetOrBuild(key, func() (any, int64, error) { return nil, 0, errProbe })
	return err == nil
}

// TestLRUEvictionOrder pins least-recently-used eviction: a hit
// refreshes an entry, so the next insertion over budget evicts the
// entry touched longest ago, and evictions continue in that order.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(30)
	var calls int
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.GetOrBuild(k, sized(k, 10, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: recency is now a, c, b (most to least recent).
	if v, err := c.GetOrBuild("a", sized("stale", 10, &calls)); err != nil || v != "a" {
		t.Fatalf("hit on a = %v, %v", v, err)
	}
	if calls != 3 {
		t.Fatalf("a hit rebuilt: %d builds", calls)
	}
	if _, err := c.GetOrBuild("d", sized("d", 10, &calls)); err != nil {
		t.Fatal(err)
	}
	if resident(c, "b") {
		t.Fatal("b, the least recently used entry, survived an insertion over budget")
	}
	// Touch c then a: recency is a, c, d; inserting e evicts d.
	for _, k := range []string{"c", "a"} {
		if !resident(c, k) {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if _, err := c.GetOrBuild("e", sized("e", 10, &calls)); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]bool{"a": true, "c": true, "d": false, "e": true} {
		if got := resident(c, k); got != want {
			t.Fatalf("after inserting e: %s resident = %v, want %v", k, got, want)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("stats %+v, want 2 evictions and 3 entries of 30 bytes", st)
	}
}

// TestByteAccounting pins the budget ledger: Bytes is the payload sum
// of the resident entries, one insertion may evict several smaller
// entries, and an artifact larger than the whole budget is served but
// neither retained nor allowed to evict anything.
func TestByteAccounting(t *testing.T) {
	c := New(100)
	var calls int
	for i, bytes := range []int64{20, 30, 40} {
		if _, err := c.GetOrBuild(fmt.Sprint(i), sized(i, bytes, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Bytes != 90 || st.Entries != 3 || st.Budget != 100 {
		t.Fatalf("stats %+v, want 90 bytes in 3 entries", st)
	}
	v, err := c.GetOrBuild("huge", sized("huge", 101, &calls))
	if err != nil || v != "huge" {
		t.Fatalf("over-budget artifact served as %v, %v", v, err)
	}
	if st := c.Stats(); st.Bytes != 90 || st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("over-budget artifact disturbed the cache: %+v", st)
	}
	if _, err := c.GetOrBuild("huge", sized("huge", 101, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("over-budget artifact retained: %d builds, want 5", calls)
	}
	// 60 more bytes must evict the two oldest entries (20 + 30).
	if _, err := c.GetOrBuild("big", sized("big", 60, &calls)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != 100 || st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("stats %+v, want 100 bytes in 2 entries after 2 evictions", st)
	}
	if resident(c, "0") || resident(c, "1") || !resident(c, "2") || !resident(c, "big") {
		t.Fatal("wrong entries evicted")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 8 {
		t.Fatalf("counters %+v, want 2 hits and 8 misses", st)
	}
}

// TestFailedBuildNotCached pins that an error is returned to the caller
// and never retained: the next request builds again.
func TestFailedBuildNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, int64, error) { calls++; return nil, 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrBuild("k", fail); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err %v, want %v", i, err, boom)
		}
	}
	if calls != 2 {
		t.Fatalf("failed build cached: %d builds, want 2", calls)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v after two failed builds", st)
	}
	v, err := c.GetOrBuild("k", func() (any, int64, error) { return 7, 1, nil })
	if err != nil || v != 7 {
		t.Fatalf("recovery build = %v, %v", v, err)
	}
	// Failed typed builds are not cached either.
	if _, _, err := c.Tables(topology.Config{A: 3, B: 2, C: 2, L: 1}); err == nil {
		t.Fatal("invalid geometry built tables")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("invalid geometry cached: %+v", st)
	}
}

// TestSingleflight pins one construction for N concurrent callers of
// one key: every caller blocks on the single in-flight build and gets
// its value. CI runs it under -race.
func TestSingleflight(t *testing.T) {
	const callers = 16
	c := New(0)
	release := make(chan struct{})
	var mu sync.Mutex
	builds := 0
	build := func() (any, int64, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-release
		return new(int), 8, nil
	}
	results := make([]any, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrBuild("k", build)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Hold the build until every other caller is waiting on it.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().SingleflightWaits < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("callers never converged on the in-flight build: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d builds for one key, want 1", builds)
	}
	for i, v := range results {
		if v != results[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// engine is the slice of a packet engine the cache-equivalence test
// drives, with the fault swap bound to its fabric's mask type.
type engine struct {
	net    *queuesim.Network
	faults func(on bool) error
}

// compareEngines drives two engines with one replayed traffic stream,
// swapping their masks in a quarter of the way through and out again
// at three quarters, and requires identical per-cycle stats, totals
// and latency.
func compareEngines(t *testing.T, a, b engine, ports int) {
	t.Helper()
	gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(41)}
	dest := make([]int, ports)
	const cycles = 240
	for c := 0; c < cycles; c++ {
		if c == cycles/4 || c == 3*cycles/4 {
			on := c == cycles/4
			if err := a.faults(on); err != nil {
				t.Fatal(err)
			}
			if err := b.faults(on); err != nil {
				t.Fatal(err)
			}
		}
		gen.GenerateInto(dest, ports)
		as, err := a.net.Cycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := b.net.Cycle(dest)
		if err != nil {
			t.Fatal(err)
		}
		if as != bs {
			t.Fatalf("cycle %d: cached %+v vs fresh %+v", c, as, bs)
		}
	}
	if a.net.Totals() != b.net.Totals() {
		t.Fatalf("totals %+v vs %+v", a.net.Totals(), b.net.Totals())
	}
	ha, hb := a.net.Latency(), b.net.Latency()
	if ha.N() != hb.N() || ha.Mean() != hb.Mean() || ha.Quantile(0.99) != hb.Quantile(0.99) {
		t.Fatalf("latency n=%d mean=%g vs n=%d mean=%g", ha.N(), ha.Mean(), hb.N(), hb.Mean())
	}
}

// TestCachedArtifactsMatchFreshBuilds pins the package doc's claim: an
// engine built from cached tables and driven with cached masks is
// bit-for-bit an engine that built everything itself, on both fabrics,
// through a mid-run UpdateFaults and its repair — and a second lookup
// hits, sharing the same immutable artifacts.
func TestCachedArtifactsMatchFreshBuilds(t *testing.T) {
	c := New(0)
	const fraction, seed = 0.15, 9
	for _, depth := range []int{0, 4} {
		for _, policy := range []queuesim.Policy{queuesim.Backpressure, queuesim.Drop} {
			t.Run(fmt.Sprintf("edn/depth%d/%v", depth, policy), func(t *testing.T) {
				cfg, err := topology.New(8, 4, 2, 2)
				if err != nil {
					t.Fatal(err)
				}
				tabs, _, err := c.Tables(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cm, _, err := c.Masks(cfg, faults.MixedFaults, fraction, seed)
				if err != nil {
					t.Fatal(err)
				}
				tabs2, hit, err := c.Tables(cfg)
				if err != nil || !hit || tabs2 != tabs {
					t.Fatalf("second Tables lookup: hit=%v same=%v err=%v", hit, tabs2 == tabs, err)
				}
				if cm2, hit, _ := c.Masks(cfg, faults.MixedFaults, fraction, seed); !hit || cm2 != cm {
					t.Fatal("second Masks lookup missed")
				}
				fm := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.MixedFaults, fraction, xrand.New(seed)))
				ednEngine := func(tables *queuesim.Fabric, m *faults.Masks) engine {
					n, err := queuesim.New(cfg, queuesim.Options{Depth: depth, Policy: policy, Tables: tables})
					if err != nil {
						t.Fatal(err)
					}
					return engine{n, func(on bool) error {
						if on {
							return n.UpdateFaults(m)
						}
						return n.UpdateFaults(nil)
					}}
				}
				compareEngines(t, ednEngine(tabs, cm), ednEngine(nil, fm), cfg.Inputs())
			})
			t.Run(fmt.Sprintf("dilated/depth%d/%v", depth, policy), func(t *testing.T) {
				dcfg, err := dilated.New(2, 2, 3)
				if err != nil {
					t.Fatal(err)
				}
				tabs, _, err := c.DilatedTables(dcfg)
				if err != nil {
					t.Fatal(err)
				}
				cm, _, err := c.DilatedMasks(dcfg, fraction, seed)
				if err != nil {
					t.Fatal(err)
				}
				tabs2, hit, err := c.DilatedTables(dcfg)
				if err != nil || !hit || tabs2 != tabs {
					t.Fatalf("second DilatedTables lookup: hit=%v same=%v err=%v", hit, tabs2 == tabs, err)
				}
				if cm2, hit, _ := c.DilatedMasks(dcfg, fraction, seed); !hit || cm2 != cm {
					t.Fatal("second DilatedMasks lookup missed")
				}
				fm := dilatedsim.MustCompile(dcfg, dilated.BernoulliSubWires(dcfg, fraction, xrand.New(seed)))
				dilEngine := func(tables *queuesim.Fabric, m *dilatedsim.Masks) engine {
					n, err := dilatedsim.New(dcfg, dilatedsim.Options{Depth: depth, Policy: policy, Tables: tables})
					if err != nil {
						t.Fatal(err)
					}
					return engine{n.Network, func(on bool) error {
						if on {
							return n.UpdateFaults(m)
						}
						return n.UpdateFaults(nil)
					}}
				}
				compareEngines(t, dilEngine(tabs, cm), dilEngine(nil, fm), dcfg.Ports())
			})
		}
	}
}

// TestMaskBytesCountRetainedTables pins the ledger's mask entries: a
// mask compiled over the cache's own Tables counts only its liveness
// rows (the tables are counted under their own key), while a mask
// compiled over a private copy of the routing tables — the dilated
// masks — counts those tables too, since the cached mask keeps them
// alive.
func TestMaskBytesCountRetainedTables(t *testing.T) {
	rowBytes := func(m *faults.Masks) (rows, tables int64) {
		rows = int64(len(m.LiveInputs()))
		for s, st := range m.Fabric() {
			rows += int64(len(m.LiveStageOutputs(s + 1)))
			tables += 4 * int64(len(st.Table))
		}
		return rows, tables
	}
	c := New(0)
	cfg, err := topology.New(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Masks(cfg, faults.WireFaults, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tabs, hit, err := c.Tables(cfg)
	if err != nil || !hit {
		t.Fatalf("Masks did not compile over the cache's own Tables (hit=%v, err=%v)", hit, err)
	}
	rows, shared := rowBytes(m)
	if rows == 0 || shared == 0 {
		t.Fatalf("degenerate sample: %d row bytes, %d table bytes", rows, shared)
	}
	if got, want := c.Stats().Bytes, tabs.Bytes()+rows; got != want {
		t.Fatalf("ledger %d bytes after an EDN mask, want tables %d + rows %d", got, tabs.Bytes(), rows)
	}

	dcfg, err := dilated.New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats().Bytes
	dm, _, err := c.DilatedMasks(dcfg, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, private := rowBytes(dm)
	if rows == 0 || private == 0 {
		t.Fatalf("degenerate dilated sample: %d row bytes, %d table bytes", rows, private)
	}
	if got := c.Stats().Bytes - before; got != rows+private {
		t.Fatalf("dilated mask counted %d bytes, want rows %d + its private tables %d", got, rows, private)
	}
}
