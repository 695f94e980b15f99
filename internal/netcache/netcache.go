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
// whole budget is served but never retained; a mask on either fabric
// counts only its liveness rows, since it shares the cache's own
// tables), that failed builds are not cached, and single-flight builds
// under the race detector.
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
// (cfg, mode, fraction, seed), so a hit replays the identical draw.
func (c *Cache) Masks(cfg topology.Config, mode faults.Mode, fraction float64, seed uint64) (*faults.Masks, bool, error) {
	key := fmt.Sprintf("mask:%d/%d/%d/%d:%d:%g:%d", cfg.A, cfg.B, cfg.C, cfg.L, int(mode), fraction, seed)
	return c.masks(key, fraction, seed, func() (*queuesim.Fabric, faults.Population, error) {
		f, _, err := c.Tables(cfg)
		return f, faults.ModePopulation(cfg, mode), err
	})
}

// DilatedMasks is Masks for the dilated delta: a Bernoulli sample of
// its sub-wires (dilatedsim.SubWires) at the given fraction and seed.
func (c *Cache) DilatedMasks(dcfg dilated.Config, fraction float64, seed uint64) (*faults.Masks, bool, error) {
	key := fmt.Sprintf("dmask:%d/%d/%d:%g:%d", dcfg.B, dcfg.D, dcfg.L, fraction, seed)
	return c.masks(key, fraction, seed, func() (*queuesim.Fabric, faults.Population, error) {
		f, _, err := c.DilatedTables(dcfg)
		return f, dilatedsim.SubWires(dcfg), err
	})
}

// masks is the one mask lookup: the entry under key, built on a miss by
// drawing a Bernoulli sample of the population at fraction under seed
// and compiling it over the cache's own fabric, both from lookup. The
// masks share that fabric's tables, so they are charged only their
// liveness rows: one bool per entry (unfaulted stages compile to nil
// rows and cost nothing).
func (c *Cache) masks(key string, fraction float64, seed uint64, lookup func() (*queuesim.Fabric, faults.Population, error)) (*faults.Masks, bool, error) {
	v, hit, err := c.getOrBuildHit(key, func() (any, int64, error) {
		f, pop, err := lookup()
		if err != nil {
			return nil, 0, err
		}
		m, err := faults.CompileFabric(f.Label, f.Stages, pop.Bernoulli(fraction, xrand.New(seed)))
		if err != nil {
			return nil, 0, err
		}
		b := int64(len(m.LiveInputs()))
		for s := range f.Stages {
			b += int64(len(m.LiveStageOutputs(s + 1)))
		}
		return m, b, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*faults.Masks), hit, nil
}
