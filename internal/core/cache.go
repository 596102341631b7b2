package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// The sharded lock-free cache behind GridCache:
//
//   - The serving path is lock free: a hit loads an immutable map snapshot
//     through an atomic pointer and bumps the entry's recency stamp with an
//     atomic store.
//   - Misses take a per-shard mutex only to install a placeholder in a
//     fresh snapshot; the value is built outside every lock, and concurrent
//     requests for the same key coalesce on the placeholder (singleflight),
//     so a stampede builds each value exactly once.
//   - Capacity is apportioned across shards (LRU per shard); capacities too
//     small to split (< 2·cacheShards) keep a single shard and therefore
//     exact global LRU order.
//
// The build function is fixed at construction — not passed per call — so
// the hit path allocates nothing, not even a closure.

// cacheShards is the shard count for caches large enough to split.
const cacheShards = 16

// shardedCache is an integer-keyed sharded LRU of GridTables with a
// lock-free read path and singleflight builds.
type shardedCache struct {
	shards []cacheShard
	tick   atomic.Uint64 // global recency clock, shared by all shards
	builds atomic.Uint64 // values actually constructed (singleflight audit)
	build  func(key int) *GridTable
}

type cacheShard struct {
	read atomic.Pointer[map[int]*cacheEntry] // immutable snapshot; copy-on-write
	mu   sync.Mutex                          // guards snapshot replacement
	cap  int
}

// cacheEntry is one cached (or in-flight) value. ready is closed once v is
// set; hitters on an in-flight entry wait on it instead of rebuilding.
type cacheEntry struct {
	used  atomic.Uint64
	ready chan struct{}
	v     atomic.Pointer[GridTable]
}

// newShardedCache builds a cache of the given capacity (must be ≥ 1) whose
// misses are filled by build.
func newShardedCache(capacity int, build func(key int) *GridTable) *shardedCache {
	n := cacheShards
	if capacity < 2*cacheShards {
		n = 1 // too small to split: keep exact global LRU
	}
	sc := &shardedCache{shards: make([]cacheShard, n), build: build}
	perShard := (capacity + n - 1) / n
	for i := range sc.shards {
		sc.shards[i].cap = perShard
		empty := make(map[int]*cacheEntry)
		sc.shards[i].read.Store(&empty)
	}
	return sc
}

// shardOf maps a key to its shard via SplitMix64-style mixing, so
// arithmetic sweeps (100, 200, 300, …) spread instead of clustering.
func (sc *shardedCache) shardOf(key int) *cacheShard {
	if len(sc.shards) == 1 {
		return &sc.shards[0]
	}
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &sc.shards[z%uint64(len(sc.shards))]
}

// get returns the (possibly cached) value for key, building it at most once
// per residency no matter how many goroutines race.
func (sc *shardedCache) get(key int) *GridTable {
	sh := sc.shardOf(key)
	if e, ok := (*sh.read.Load())[key]; ok {
		return sc.hit(e)
	}
	sh.mu.Lock()
	snap := *sh.read.Load()
	if e, ok := snap[key]; ok {
		sh.mu.Unlock()
		return sc.hit(e)
	}
	// Install an in-flight placeholder in a fresh snapshot, then build the
	// value outside the lock so other shard keys proceed undisturbed and
	// same-key callers coalesce on the placeholder.
	e := &cacheEntry{ready: make(chan struct{})}
	e.used.Store(sc.tick.Add(1))
	next := make(map[int]*cacheEntry, len(snap)+1)
	for k, v := range snap {
		next[k] = v
	}
	if len(next) >= sh.cap {
		evict, oldest := 0, uint64(math.MaxUint64)
		for k, v := range next {
			if u := v.used.Load(); u < oldest {
				evict, oldest = k, u
			}
		}
		delete(next, evict)
	}
	next[key] = e
	sh.read.Store(&next)
	sh.mu.Unlock()

	v := sc.build(key)
	sc.builds.Add(1)
	e.v.Store(v)
	close(e.ready)
	return v
}

// hit bumps an entry's recency and returns its value, waiting out an
// in-flight build if necessary.
func (sc *shardedCache) hit(e *cacheEntry) *GridTable {
	e.used.Store(sc.tick.Add(1))
	if v := e.v.Load(); v != nil {
		return v
	}
	<-e.ready
	return e.v.Load()
}
