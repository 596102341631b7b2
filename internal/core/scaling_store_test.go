package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/workload"
)

// SimMeasurer's scaling probes are platform.ScalingTime's (DESIGN §12, "Eq. 2
// is a platform property"): every answer is the direct burst's, every error
// Run's, and a build that differs from a profiled one only in seed, prices or
// memory size runs no no-op burst. Which store keeps which answer is tested
// beside the stores (internal/platform).

// directScaling runs the no-op burst platform.ScalingTime answers for.
func directScaling(cfg platform.Config, seed int64, instances int) (float64, error) {
	res, err := platform.Run(cfg, platform.Burst{
		Demand:    interfere.Demand{CPUSeconds: 0.1, MemoryMB: 128},
		Functions: instances,
		Degree:    1,
		Seed:      seed + int64(instances)*7919,
	})
	if err != nil {
		return 0, err
	}
	return res.ScalingTime(), nil
}

// TestScalingStoreKeysDoNotAlias: seed, a control-plane field and the memory
// size each select their own result, the direct burst's — asked cold and
// asked again — and so does the seed on a throttled and on a faulty platform,
// whose scaling times depend on it.
func TestScalingStoreKeysDoNotAlias(t *testing.T) {
	base := platform.AWSLambda()
	sched := base
	sched.SchedServers++
	small, err := base.WithMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	throttled, faulty := base, base
	throttled.ConcurrencyLimit = 10
	faulty.StartFailureProb = 0.2
	variants := []*SimMeasurer{
		{Config: base, Seed: 1}, {Config: base, Seed: 2}, {Config: sched, Seed: 1}, {Config: small, Seed: 1},
		{Config: throttled, Seed: 1}, {Config: throttled, Seed: 2}, {Config: faulty, Seed: 1}, {Config: faulty, Seed: 2},
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
	for _, cfg := range []platform.Config{throttled, faulty} { // the seed must matter, or aliasing could not show
		a, _ := directScaling(cfg, 1, 500)
		if b, _ := directScaling(cfg, 2, 500); f64eq(a, b) {
			t.Fatalf("seeds 1 and 2 scale alike (%v) at limit %d, start failures %g", a, cfg.ConcurrencyLimit, cfg.StartFailureProb)
		}
	}
}

// TestScalingStoreKeepsNoFailures: an invalid Config — also one whose control
// plane's record is stored — the execution limit and a burst whose starts
// fail each return Run's error, and a burst that reaches an infinite instant
// panics, to every caller.
func TestScalingStoreKeepsNoFailures(t *testing.T) {
	base := platform.AWSLambda()
	if _, err := (&SimMeasurer{Config: base, Seed: 1}).MeasureScaling(100); err != nil {
		t.Fatal(err)
	}
	noSched, priced, limited, failing, inf := base, base, base, base, base
	noSched.SchedServers = 0
	priced.GBSecondUSD = -1 // base's schedule key, whose record is stored
	limited.MaxExecSec = 0.05
	failing.StartFailureProb, failing.Retry.MaxAttempts = 0.9, 1
	inf.SchedBaseSec = math.MaxFloat64 // valid, and the second placement completes at +Inf
	outcome := func(probe func() (float64, error)) (s string) {
		defer func() {
			if v := recover(); v != nil {
				s = fmt.Sprint("panic: ", v)
			}
		}()
		_, err := probe()
		return fmt.Sprint(err)
	}
	for i, cfg := range []platform.Config{noSched, priced, limited, failing, inf} {
		want := outcome(func() (float64, error) { return directScaling(cfg, 1, 100) })
		for call := 0; call < 2; call++ {
			got := outcome(func() (float64, error) { return (&SimMeasurer{Config: cfg, Seed: 1}).MeasureScaling(100) })
			if got != want || want == "<nil>" {
				t.Errorf("case %d, call %d: %s, the direct burst %s", i, call, got, want)
			}
		}
	}
}

// burstCounter is a sequential SimMeasurer (seqOnly: every probe runs on the
// caller's goroutine) that counts the scaling probes that allocate an end
// column's worth, 8 B an instance. A probe answered from platform's stores
// allocates nothing and a burst at least its columns; the runtime's own rare
// allocations in the window (≈ 5 KB seen) stay below the 8 KB of the
// smallest probe used here.
type burstCounter struct {
	seqOnly
	bursts *int
}

func (c burstCounter) MeasureScaling(instances int) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := c.sm.MeasureScaling(instances)
	runtime.ReadMemStats(&after)
	if after.TotalAlloc-before.TotalAlloc >= 8*uint64(instances) {
		*c.bursts++
	}
	return st, err
}

// TestWarmPlatformAdvise pins what a cold Advise (propack.Advise's body, on
// three scaling probes) costs on a control plane this process has profiled:
// its first Advise runs the three no-op bursts, and one for another
// application, seed, set of prices or memory size runs none.
func TestWarmPlatformAdvise(t *testing.T) {
	cfg := platform.AWSLambda()
	cfg.SchedBaseSec *= 1 + rand.Float64() // a control plane no earlier test or run has profiled
	bursts := func(cfg platform.Config, d interfere.Demand, seed int64) int {
		n := 0
		opts := ProfileOptionsFor(cfg, d)
		opts.ScalingProbes = []int{1000, 2000, 4000}
		m, _, _, _, err := BuildModels(burstCounter{seqOnly{&SimMeasurer{Config: cfg, Demand: d, Seed: seed}}, &n}, opts)
		if err == nil {
			_, err = m.PlanFor(2000, Balanced())
		}
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	video := workload.Video{}.Demand()
	if n := bursts(cfg, workload.Sort{}.Demand(), 1); n != 3 {
		t.Fatalf("the first Advise on the control plane ran %d no-op bursts, want 3", n)
	}
	priced := cfg
	priced.GBSecondUSD, priced.PerRequestUSD, priced.Storage.GetRequestUSD = 2*cfg.GBSecondUSD, 0, 3*cfg.Storage.GetRequestUSD
	small, err := cfg.WithMemory(4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		what string
		cfg  platform.Config
		seed int64
	}{{"another application", cfg, 1}, {"another seed", cfg, 7}, {"other prices", priced, 1}, {"another memory size", small, 1}} {
		if n := bursts(v.cfg, video, v.seed); n != 0 {
			t.Errorf("an Advise for %s ran %d no-op bursts, want 0", v.what, n)
		}
	}
}
