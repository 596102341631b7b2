package core

import (
	"sync"
	"sync/atomic"
)

// lruCache is the store behind GridCache: one mutex over one map of at most
// capacity tables, evicting the least recently used. The mutex is held only
// to look a key up, stamp its recency and, on a miss, install a placeholder;
// the table itself is built outside the lock, and concurrent requests for
// the same key wait on the placeholder (singleflight), so a stampede builds
// each table exactly once. One lock is enough: a served request has already
// taken the planner pool's mutex to reach its Planner, and a quantile search
// takes the table's own, so a lock-free hit would save no caller a lock.
//
// The build function is fixed at construction — not passed per call — so
// the hit path allocates nothing, not even a closure.
type lruCache struct {
	mu       sync.Mutex
	entries  map[int]*cacheEntry
	tick     uint64 // recency clock, guarded by mu
	capacity int
	builds   atomic.Uint64 // tables actually constructed (singleflight audit)
	build    func(key int) *GridTable
}

// cacheEntry is one cached (or in-flight) table. ready is closed once v is
// set; callers that find v unset wait on it instead of rebuilding.
type cacheEntry struct {
	used  uint64 // tick of the last lookup, guarded by the cache's mu
	ready chan struct{}
	v     atomic.Pointer[GridTable]
}

// newLRUCache builds a cache of the given capacity (must be ≥ 1) whose
// misses are filled by build.
func newLRUCache(capacity int, build func(key int) *GridTable) *lruCache {
	return &lruCache{entries: make(map[int]*cacheEntry, capacity), capacity: capacity, build: build}
}

// get returns the (possibly cached) table for key, building it at most once
// per residency no matter how many goroutines race.
func (lc *lruCache) get(key int) *GridTable {
	lc.mu.Lock()
	lc.tick++
	if e, ok := lc.entries[key]; ok {
		e.used = lc.tick
		lc.mu.Unlock()
		if v := e.v.Load(); v != nil {
			return v
		}
		<-e.ready
		return e.v.Load()
	}
	if len(lc.entries) >= lc.capacity {
		var evict int
		oldest := lc.tick
		for k, e := range lc.entries {
			if e.used < oldest {
				evict, oldest = k, e.used
			}
		}
		delete(lc.entries, evict)
	}
	e := &cacheEntry{used: lc.tick, ready: make(chan struct{})}
	lc.entries[key] = e
	lc.mu.Unlock()

	v := lc.build(key)
	lc.builds.Add(1)
	e.v.Store(v)
	close(e.ready)
	return v
}
