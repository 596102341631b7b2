package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/funcx"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/workload"
)

// The scaling-probe store's proof chain (DESIGN §12, "Eq. 2 is a platform
// property"): models, samples and Overhead Float64bits-equal to a
// store-bypassing measurer for every platform × application pair and a
// four-size grid, shared bursts for racing builds, the cap, errors, panics
// and NaN keys, key non-aliasing, and what a warm platform costs. Under the
// race detector the allocation pins skip and the rest runs as is.
//
// The scaling-probe store is tested against the code it fronts: a direct
// platform.Run of the same no-op burst, and BuildModels over a measurer
// whose MeasureScaling is that direct run (what every SimMeasurer did
// before the store).

// resetScalingStore empties the process-wide store and its burst counter.
func resetScalingStore() {
	scalingStore.Lock()
	clear(scalingStore.m)
	scalingStore.Unlock()
	scalingBursts.Store(0)
}

func scalingStoreLen() int {
	scalingStore.Lock()
	defer scalingStore.Unlock()
	return len(scalingStore.m)
}

// directScaling runs the no-op burst the store would run on a miss.
func directScaling(cfg platform.Config, seed int64, instances int) (float64, error) {
	res, err := platform.Run(cfg, platform.Burst{
		Demand:    nopDemand(),
		Functions: instances,
		Degree:    1,
		Seed:      seed + int64(instances)*7919,
	})
	if err != nil {
		return 0, err
	}
	return res.ScalingTime(), nil
}

// unshared is a SimMeasurer whose scaling probes bypass the store.
type unshared struct{ *SimMeasurer }

func (u unshared) MeasureScaling(instances int) (float64, error) {
	return directScaling(u.Config, u.Seed, instances)
}

var (
	_ ConcurrentMeasurer = unshared{}
	_ CostMeasurer       = unshared{}
)

// bits renders a value with every float in hexadecimal, so two renderings
// are equal exactly when the values are Float64bits-equal field for field.
func bits(v any) string { return fmt.Sprintf("%x", v) }

func storePlatforms() []platform.Config {
	return []platform.Config{platform.AWSLambda(), platform.GoogleCloudFunctions(), platform.AzureFunctions(), funcx.Config()}
}

// buildBits is everything BuildModels returns, rendered bit-exactly.
func buildBits(t *testing.T, meas Measurer, opts ProfileOptions) string {
	t.Helper()
	m, et, sc, ov := buildAll(t, meas, opts)
	return bits([]any{m, et, sc, ov})
}

// TestScalingStoreBitIdentity: for every platform × application pair, what
// BuildModels returns does not depend on the store's state — empty, warmed
// by this very build, or warmed by a different application on the platform
// — and equals the build whose scaling probes never touch the store. Every
// value the store ends up holding is the direct burst's.
func TestScalingStoreBitIdentity(t *testing.T) {
	apps := workload.All()
	for _, cfg := range storePlatforms() {
		for i, w := range apps {
			d := w.Demand()
			opts := ProfileOptionsFor(cfg, d)
			want := buildBits(t, unshared{&SimMeasurer{Config: cfg, Demand: d, Seed: 1}}, opts)

			resetScalingStore()
			if got := buildBits(t, &SimMeasurer{Config: cfg, Demand: d, Seed: 1}, opts); got != want {
				t.Errorf("%s/%s: empty store:\n got %s\nwant %s", cfg.Name, w.Name(), got, want)
			}
			if got := buildBits(t, &SimMeasurer{Config: cfg, Demand: d, Seed: 1}, opts); got != want {
				t.Errorf("%s/%s: warm store:\n got %s\nwant %s", cfg.Name, w.Name(), got, want)
			}
			if n := scalingBursts.Load(); n != 9 {
				t.Errorf("%s/%s: two builds ran %d no-op bursts, want 9", cfg.Name, w.Name(), n)
			}

			resetScalingStore()
			od := apps[(i+1)%len(apps)].Demand()
			buildAll(t, &SimMeasurer{Config: cfg, Demand: od, Seed: 1}, ProfileOptionsFor(cfg, od))
			if got := buildBits(t, &SimMeasurer{Config: cfg, Demand: d, Seed: 1}, opts); got != want {
				t.Errorf("%s/%s: store warmed by another app:\n got %s\nwant %s", cfg.Name, w.Name(), got, want)
			}
			if n := scalingBursts.Load(); n != 9 {
				t.Errorf("%s/%s: builds of two apps ran %d no-op bursts, want 9", cfg.Name, w.Name(), n)
			}
		}
		scalingStore.Lock()
		for k, p := range scalingStore.m {
			want, err := directScaling(k.cfg, k.seed, k.instances)
			if err != nil || p.err != nil || !f64eq(p.sec, want) {
				t.Errorf("%s: stored probe at %d instances = %v (%v), direct burst %v (%v)", cfg.Name, k.instances, p.sec, p.err, want, err)
			}
		}
		scalingStore.Unlock()
	}
}

// TestScalingStoreGridBitIdentity is the same property through
// BuildGridModels on a four-size grid, whose scaling schedule runs on the
// resized base configuration.
func TestScalingStoreGridBitIdentity(t *testing.T) {
	cfg, d := platform.AWSLambda(), workload.Video{}.Demand()
	sizes := []float64{2048, 4096, 6144, 10240}
	build := func(share bool) string {
		probes, err := GridProbesFor(cfg, d, sizes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !share {
			for i := range probes {
				probes[i].Meas = unshared{probes[i].Meas.(*SimMeasurer)}
			}
		}
		g, ov, err := BuildGridModels(probes)
		if err != nil {
			t.Fatal(err)
		}
		return bits([]any{g, ov})
	}
	want := build(false)
	resetScalingStore()
	for _, state := range []string{"empty", "warm"} {
		if got := build(true); got != want {
			t.Errorf("%s store:\n got %s\nwant %s", state, got, want)
		}
	}
	resetScalingStore()
	od := workload.Sort{}.Demand()
	buildAll(t, &SimMeasurer{Config: cfg, Demand: od, Seed: 1}, ProfileOptionsFor(cfg, od))
	if got := build(true); got != want {
		t.Errorf("store warmed by a fixed-size build of another app:\n got %s\nwant %s", got, want)
	}
	if n := scalingBursts.Load(); n != 9 {
		t.Errorf("a fixed-size build and a grid with the same base size ran %d no-op bursts, want 9", n)
	}
}

// TestScalingStoreConcurrentBuildsShareBursts: builds of different
// applications racing on one platform coalesce on its nine probes — from
// bare goroutines and through parallel.Map at any worker count, the shape
// the figure drivers and the daemon's set-up pass have.
func TestScalingStoreConcurrentBuildsShareBursts(t *testing.T) {
	cfg := platform.AWSLambda()
	apps := workload.All()
	build := func(i int) error {
		d := apps[i%len(apps)].Demand()
		_, _, _, _, err := BuildModels(&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, ProfileOptionsFor(cfg, d))
		return err
	}

	resetScalingStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := build(i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := scalingBursts.Load(); n != 9 {
		t.Errorf("16 concurrent builds ran %d no-op bursts, want 9", n)
	}

	for _, workers := range []int{1, 2, 8} {
		resetScalingStore()
		_, err := parallel.Map(context.Background(), 16, func(_ context.Context, i int) (struct{}, error) {
			return struct{}{}, build(i)
		}, parallel.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if n := scalingBursts.Load(); n != 9 {
			t.Errorf("parallel.Map with %d workers: %d no-op bursts, want 9", workers, n)
		}
	}
}

// TestScalingStoreBounded: the store never holds more than its cap, and a
// key dropped at the cap measures the same bits when asked again.
func TestScalingStoreBounded(t *testing.T) {
	resetScalingStore()
	cfg := platform.AWSLambda()
	first := &SimMeasurer{Config: cfg, Seed: 0}
	want, err := first.MeasureScaling(3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= scalingStoreCap; seed++ {
		if _, err := (&SimMeasurer{Config: cfg, Seed: seed}).MeasureScaling(1); err != nil {
			t.Fatal(err)
		}
		if n := scalingStoreLen(); n > scalingStoreCap {
			t.Fatalf("store holds %d results after %d keys, cap %d", n, seed+1, scalingStoreCap)
		}
	}
	if n := scalingBursts.Load(); n != scalingStoreCap+1 {
		t.Fatalf("%d bursts for %d distinct keys", n, scalingStoreCap+1)
	}
	got, err := first.MeasureScaling(3)
	if err != nil || !f64eq(got, want) {
		t.Errorf("dropped key re-measured %v (%v), first time %v", got, err, want)
	}
	if n := scalingBursts.Load(); n != scalingStoreCap+2 {
		t.Errorf("the key inserted first survived the cap: %d bursts", n)
	}
}

// TestScalingStoreKeepsNoFailures: an error reaches every caller and is not
// retained; a panic inside the simulator (a non-finite instant) reaches its
// caller as before and leaves no zero behind for the next one; and a Config
// holding a NaN, which no lookup can find again, still cannot grow the store
// past its cap. Every validator now refuses a non-finite float, so the panic
// comes from finite ones — a scheduler time whose second placement overflows
// — and the NaN key holds a validation error, which delete cannot find either.
func TestScalingStoreKeepsNoFailures(t *testing.T) {
	resetScalingStore()
	bad := platform.AWSLambda()
	bad.SchedServers = 0
	_, wantErr := directScaling(bad, 1, 10)
	if wantErr == nil {
		t.Fatal("a platform without scheduler servers ran")
	}
	for i := 0; i < 2; i++ {
		if _, err := (&SimMeasurer{Config: bad, Seed: 1}).MeasureScaling(10); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("call %d: error %v, want %v", i, err, wantErr)
		}
	}
	if n, b := scalingStoreLen(), scalingBursts.Load(); n != 0 || b != 2 {
		t.Errorf("a failing probe left %d entries after %d bursts, want 0 after 2", n, b)
	}

	inf := platform.AWSLambda()
	inf.SchedBaseSec = math.MaxFloat64 // valid, and the second placement completes at +Inf
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: an infinite placement time did not panic", i)
				}
			}()
			st, err := (&SimMeasurer{Config: inf, Seed: 1}).MeasureScaling(10)
			t.Errorf("call %d: returned %v, %v", i, st, err)
		}()
	}
	if n := scalingStoreLen(); n != 0 {
		t.Errorf("a panicking probe left %d entries", n)
	}

	nan := platform.AWSLambda()
	nan.Shape.CrossDiscount = math.NaN() // refused by Validate; the key never matches, not even to be deleted
	for i := 0; i <= scalingStoreCap; i++ {
		if _, err := (&SimMeasurer{Config: nan, Seed: 1}).MeasureScaling(1); err == nil {
			t.Fatal("a NaN cross discount ran")
		}
		if n := scalingStoreLen(); n > scalingStoreCap {
			t.Fatalf("store holds %d results after %d NaN-keyed probes, cap %d", n, i+1, scalingStoreCap)
		}
	}
}

// TestScalingStoreKeysDoNotAlias: seed, any control-plane field and the
// memory size each select their own result, the direct burst's.
func TestScalingStoreKeysDoNotAlias(t *testing.T) {
	resetScalingStore()
	base := platform.AWSLambda()
	sched := base
	sched.SchedServers++
	small, err := base.WithMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	variants := []*SimMeasurer{
		{Config: base, Seed: 1},
		{Config: base, Seed: 2},
		{Config: sched, Seed: 1},
		{Config: small, Seed: 1},
	}
	for round := 0; round < 2; round++ {
		for i, m := range variants {
			got, err := m.MeasureScaling(500)
			want, werr := directScaling(m.Config, m.Seed, 500)
			if err != nil || werr != nil || !f64eq(got, want) {
				t.Errorf("round %d variant %d: %v (%v), direct burst %v (%v)", round, i, got, err, want, werr)
			}
		}
	}
	if n, b := scalingStoreLen(), scalingBursts.Load(); n != len(variants) || b != int64(len(variants)) {
		t.Errorf("%d variants: %d entries, %d bursts", len(variants), n, b)
	}
}

// countingExec counts the application probes a build issues.
type countingExec struct {
	*SimMeasurer
	execs *atomic.Int64 // the fan-out probes from several goroutines
}

func (c countingExec) MeasureExecCall(degree, call int) (float64, float64, error) {
	c.execs.Add(1)
	return c.SimMeasurer.MeasureExecCall(degree, call)
}

// TestWarmPlatformAdvise pins what a cold Advise costs on a platform this
// process has advised on before (advise is propack.Advise's body): no no-op
// burst, every one of the application's own probes — the store never
// shares those — and an allocation budget that a 5 000-instance column set
// per call would blow through (381 objects measured; the probes of the nine
// bursts alone were ≈ 540 more).
func TestWarmPlatformAdvise(t *testing.T) {
	cfg := platform.AWSLambda()
	advise := func(meas Measurer, d workload.Workload) {
		m, _, _, _, err := BuildModels(meas, ProfileOptionsFor(cfg, d.Demand()))
		if err == nil {
			_, err = m.PlanFor(2000, Balanced())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	video := func() *SimMeasurer { return &SimMeasurer{Config: cfg, Demand: workload.Video{}.Demand(), Seed: 1} }

	resetScalingStore()
	advise(&SimMeasurer{Config: cfg, Demand: workload.Sort{}.Demand(), Seed: 1}, workload.Sort{})
	if n := scalingBursts.Load(); n != 9 {
		t.Fatalf("first Advise on the platform ran %d no-op bursts, want 9", n)
	}
	var execs atomic.Int64
	advise(countingExec{video(), &execs}, workload.Video{})
	if n := scalingBursts.Load(); n != 9 {
		t.Errorf("Advise for a second application ran %d more no-op bursts, want 0", n-9)
	}
	// 20 sampled degrees × 3 trials; the 41 of advise-cold's
	// core.probe_exec_calls is the mean over its 20 pairs (24 … 60).
	if n := execs.Load(); n != 60 {
		t.Errorf("Advise for Video issued %d application probes, want 60", n)
	}
	if raceEnabled {
		t.Skip("allocation counts measure the race detector")
	}
	if got := testing.AllocsPerRun(20, func() { advise(video(), workload.Video{}) }); got > 450 {
		t.Errorf("warm-platform Advise allocates %.0f objects, want ≤ 450", got)
	}
	// Bytes are what the store saves (a build that runs its own nine bursts
	// is only ≈ 40 objects more, but 1.6 MB of per-instance columns; 80 KB measured).
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		advise(video(), workload.Video{})
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; kb > 200 {
		t.Errorf("warm-platform Advise allocates %.0f KB, want ≤ 200", kb)
	}
}
