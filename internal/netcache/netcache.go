// Package netcache is the geometry cache behind the serve layer: a
// byte-budgeted LRU keyed by strings, with typed helpers for the two
// immutable artifacts every job construction pays for — a fabric's
// routing tables (one queuesim.Fabric, the EDN's or the dilated
// delta's, ready for queuesim.Options.Tables) and compiled fault masks
// (faults.Masks, for either fabric).
//
// All cached artifacts are immutable after construction and safe to
// share across concurrently running engines:
//
//   - Fabrics are read-only by contract (the engines index their
//     tables, never write them).
//   - Compiled masks are "compile once, share freely" (see
//     internal/faults): UpdateFaults stores references to mask rows but
//     never writes through them.
//
// Because sharing is reference sharing, a cache hit is bit-for-bit
// identical to a fresh build — TestCachedArtifactsMatchFreshBuilds
// pins that on both fabrics through a mid-run UpdateFaults, and the
// root package's TestRunCacheTransparent across whole jobs. The tests
// also pin LRU eviction order, the byte ledger (an artifact over the
// whole budget is served but never retained; a mask counts the tables
// it retains unless they are the cache's own), that failed builds are
// not cached, and single-flight builds under the race detector.
//
// Builds are single-flight: concurrent requests for one key block on a
// single construction instead of duplicating it.
package netcache

import (
	"container/list"
	"fmt"
	"sync"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// DefaultBudget is the byte budget a zero-valued configuration gets:
// enough for hundreds of mid-sized geometries while bounding a daemon
// that sweeps thousands of distinct ones.
const DefaultBudget = 256 << 20

// Cache is a byte-budgeted LRU of immutable geometry artifacts. The
// zero value is not usable; construct with New. Safe for concurrent
// use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	pending map[string]*inflight

	hits, misses, evictions, waits int64
}

type entry struct {
	key   string
	value any
	bytes int64
}

type inflight struct {
	done  chan struct{}
	value any
	err   error
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SingleflightWaits counts hits that blocked on a peer's in-flight
	// construction of the same key instead of finding it resident —
	// contention the budget can't fix but more workers make worse.
	SingleflightWaits int64 `json:"singleflight_waits"`
}

// New returns a cache bounded to budget bytes of cached payload;
// budget <= 0 selects DefaultBudget. A single artifact larger than the
// budget is still served but never retained.
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{
		budget:  budget,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		pending: make(map[string]*inflight),
	}
}

// GetOrBuild returns the cached value for key, building it at most
// once under concurrency. build returns the value and its payload size
// in bytes (the unit the budget counts).
func (c *Cache) GetOrBuild(key string, build func() (any, int64, error)) (any, error) {
	v, _, err := c.getOrBuildHit(key, build)
	return v, err
}

// getOrBuildHit is GetOrBuild plus a hit verdict: true when the value
// came from the cache (resident or a peer's in-flight build), false
// when this call paid the construction.
func (c *Cache) getOrBuildHit(key string, build func() (any, int64, error)) (any, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).value
		c.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := c.pending[key]; ok {
		// A peer is building this key; its completion counts as our
		// hit — we paid no construction — but record the wait, since
		// blocked time here is invisible to the hit ratio.
		c.hits++
		c.waits++
		c.mu.Unlock()
		<-fl.done
		return fl.value, true, fl.err
	}
	c.misses++
	fl := &inflight{done: make(chan struct{})}
	c.pending[key] = fl
	c.mu.Unlock()

	v, bytes, err := build()
	fl.value, fl.err = v, err

	c.mu.Lock()
	delete(c.pending, key)
	if err == nil {
		c.insert(key, v, bytes)
	}
	c.mu.Unlock()
	close(fl.done)
	return v, false, err
}

// insert assumes c.mu is held.
func (c *Cache) insert(key string, v any, bytes int64) {
	if bytes > c.budget {
		return // serve it, don't retain it
	}
	for c.used+bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, ev.key)
		c.used -= ev.bytes
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: v, bytes: bytes})
	c.used += bytes
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:           len(c.items),
		Bytes:             c.used,
		Budget:            c.budget,
		Hits:              c.hits,
		Misses:            c.misses,
		Evictions:         c.evictions,
		SingleflightWaits: c.waits,
	}
}

// Tables returns the cached EDN fabric for cfg, building it on first
// use. The second result reports whether the fabric came from the
// cache (true) or this call built it (false).
func (c *Cache) Tables(cfg topology.Config) (*queuesim.Fabric, bool, error) {
	return c.fabric(fmt.Sprintf("edn:%d/%d/%d/%d", cfg.A, cfg.B, cfg.C, cfg.L), func() (*queuesim.Fabric, error) {
		return queuesim.EDNFabric(cfg)
	})
}

// DilatedTables returns the cached dilated fabric for dcfg, building
// it on first use, plus the hit verdict.
func (c *Cache) DilatedTables(dcfg dilated.Config) (*queuesim.Fabric, bool, error) {
	return c.fabric(fmt.Sprintf("dil:%d/%d/%d", dcfg.B, dcfg.D, dcfg.L), func() (*queuesim.Fabric, error) {
		return dilatedsim.Fabric(dcfg)
	})
}

// fabric is the one fabric lookup: the entry under key, built by build
// on a miss and charged its tables' bytes.
func (c *Cache) fabric(key string, build func() (*queuesim.Fabric, error)) (*queuesim.Fabric, bool, error) {
	v, hit, err := c.getOrBuildHit(key, func() (any, int64, error) {
		f, err := build()
		if err != nil {
			return nil, 0, err
		}
		return f, f.Bytes(), nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*queuesim.Fabric), hit, nil
}

// Masks returns the compiled availability masks for a Bernoulli fault
// sample over cfg — mode's population dying with probability fraction
// under the given sample seed. The key pins the full sampling identity
// (cfg, mode, fraction, seed), so a hit replays the identical draw. The
// masks are compiled over the cache's own fabric for cfg, so they
// retain no tables of their own.
func (c *Cache) Masks(cfg topology.Config, mode faults.Mode, fraction float64, seed uint64) (*faults.Masks, bool, error) {
	key := fmt.Sprintf("mask:%d/%d/%d/%d:%d:%g:%d", cfg.A, cfg.B, cfg.C, cfg.L, int(mode), fraction, seed)
	v, hit, err := c.getOrBuildHit(key, func() (any, int64, error) {
		f, _, err := c.Tables(cfg)
		if err != nil {
			return nil, 0, err
		}
		m, err := faults.CompileFabric(cfg, f.Stages, faults.Bernoulli(cfg, mode, fraction, xrand.New(seed)))
		if err != nil {
			return nil, 0, err
		}
		return m, maskBytes(m, false), nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*faults.Masks), hit, nil
}

// DilatedMasks is Masks for the dilated engine: a Bernoulli sub-wire
// sample at the given fraction and seed, compiled to engine rows over
// the masks' own copy of the routing tables.
func (c *Cache) DilatedMasks(dcfg dilated.Config, fraction float64, seed uint64) (*faults.Masks, bool, error) {
	key := fmt.Sprintf("dmask:%d/%d/%d:%g:%d", dcfg.B, dcfg.D, dcfg.L, fraction, seed)
	v, hit, err := c.getOrBuildHit(key, func() (any, int64, error) {
		m, err := dilatedsim.Compile(dcfg, dilated.BernoulliSubWires(dcfg, fraction, xrand.New(seed)))
		if err != nil {
			return nil, 0, err
		}
		return m, maskBytes(m, true), nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*faults.Masks), hit, nil
}

// maskBytes is what a compiled mask keeps alive: one bool per entry of
// its liveness rows (unfaulted stages compile to nil rows and cost
// nothing), plus, when private, the interstage tables of the
// descriptor it was compiled over.
func maskBytes(m *faults.Masks, private bool) int64 {
	b := int64(len(m.LiveInputs()))
	for s, st := range m.Fabric() {
		b += int64(len(m.LiveStageOutputs(s + 1)))
		if private {
			b += 4 * int64(len(st.Table))
		}
	}
	return b
}
