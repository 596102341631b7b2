package core

import (
	"sync"
	"testing"
)

// stressModels is a fixed, valid model set for the concurrency stress
// tests.
func stressModels() Models {
	return Models{
		ET:                 ETModel{MfuncGB: 0.5, Alpha: 0.3, Intercept: 2},
		Scaling:            ScalingModel{B1: 1e-6, B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 1e-4,
		MaxDegree:          24,
	}
}

// TestConcurrentPlannerStress hammers one shared Planner from many
// goroutines mixing every cached entry point over an overlapping set of
// concurrency levels, then checks (under -race) that every answer equals a
// fresh single-threaded planner's and that singleflight built each table
// exactly once despite the stampede.
func TestConcurrentPlannerStress(t *testing.T) {
	m := stressModels()
	concurrencies := []int{100, 500, 1000, 2500, 5000, 7500, 10000, 20000}
	weights := []Weights{ServiceOnly(), ExpenseOnly(), {Service: 0.5, Expense: 0.5}}

	// The single-threaded oracle: one fresh planner per lookup kind.
	oracle := NewPlanner(m)
	type expected struct {
		plans   map[int]Plan
		qosDeg  map[int]int
		optServ map[int]int
		optExp  map[int]int
	}
	want := expected{
		plans:   map[int]Plan{},
		qosDeg:  map[int]int{},
		optServ: map[int]int{},
		optExp:  map[int]int{},
	}
	qosSec := func(c int) float64 {
		// A comfortably feasible bound: the service-only optimum's tail.
		deg := oracle.OptimalDegreeService(c)
		return m.ServiceTimeQuantile(c, deg, 95) * 1.5
	}
	for _, c := range concurrencies {
		p, err := oracle.PlanFor(c, weights[0])
		if err != nil {
			t.Fatal(err)
		}
		want.plans[c] = p
		qp, _, err := oracle.QoSPlan(c, qosSec(c), QoSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want.qosDeg[c] = qp.Degree
		want.optServ[c] = oracle.OptimalDegreeService(c)
		want.optExp[c] = oracle.OptimalDegreeExpense(c)
	}

	shared := NewPlanner(m)
	const goroutines = 32
	const iters = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := concurrencies[(g+i)%len(concurrencies)]
				switch (g + i) % 4 {
				case 0:
					p, err := shared.PlanFor(c, weights[0])
					if err != nil || p != want.plans[c] {
						t.Errorf("PlanFor(%d) = %+v (%v), want %+v", c, p, err, want.plans[c])
						return
					}
				case 1:
					qp, _, err := shared.QoSPlan(c, qosSec(c), QoSOptions{})
					if err != nil || qp.Degree != want.qosDeg[c] {
						t.Errorf("QoSPlan(%d) degree %d (%v), want %d", c, qp.Degree, err, want.qosDeg[c])
						return
					}
				case 2:
					if deg := shared.OptimalDegreeService(c); deg != want.optServ[c] {
						t.Errorf("OptimalDegreeService(%d) = %d, want %d", c, deg, want.optServ[c])
						return
					}
				case 3:
					if deg, err := shared.OptimalDegreeForQuantile(c, 95, weights[(g+i)%len(weights)]); err != nil || deg < 1 {
						t.Errorf("OptimalDegreeForQuantile(%d) = %d (%v)", c, deg, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got, wantN := shared.cache.Builds(), uint64(len(concurrencies)); got != wantN {
		t.Fatalf("singleflight built %d tables for %d distinct concurrencies", got, wantN)
	}
	if got := shared.cache.Len(); got != len(concurrencies) {
		t.Fatalf("cache holds %d tables, want %d", got, len(concurrencies))
	}
}

// TestConcurrentTableCacheSingleflight aims every goroutine at the same
// never-seen concurrency level at once: exactly one build may happen, and
// everyone must get the same table pointer.
func TestConcurrentTableCacheSingleflight(t *testing.T) {
	tc := NewTableCache(stressModels(), 0)
	const goroutines = 64
	var wg sync.WaitGroup
	tables := make([]*GridTable, goroutines)
	var start sync.WaitGroup
	start.Add(1)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			start.Wait()
			tbl, err := tc.Table(4242)
			if err != nil {
				t.Error(err)
				return
			}
			tables[g] = tbl
		}()
	}
	start.Done()
	wg.Wait()
	if n := tc.Builds(); n != 1 {
		t.Fatalf("stampede built %d tables, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if tables[g] != tables[0] {
			t.Fatalf("goroutine %d got a different table pointer", g)
		}
	}
}

// TestTableCacheShardedEviction checks the sharded configuration still
// bounds the cache: after touching far more concurrency levels than the
// capacity, Len stays within it (per-shard rounding allows at most one
// extra entry per shard).
func TestTableCacheShardedEviction(t *testing.T) {
	capacity := 2 * cacheShards // smallest capacity that shards
	tc := NewTableCache(stressModels(), capacity)
	for c := 1; c <= 10*capacity; c++ {
		if _, err := tc.Table(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.Len(); got > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", got, capacity)
	}
	if builds := tc.Builds(); builds != uint64(10*capacity) {
		t.Fatalf("builds = %d, want %d (every level distinct)", builds, 10*capacity)
	}
}
