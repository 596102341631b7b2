package platform

import (
	"errors"
	"math"
	"testing"

	"repro/internal/interfere"
	"repro/internal/workload"
)

func testDemand() interfere.Demand {
	return workload.Video{}.Demand()
}

func TestConfigPresetsValid(t *testing.T) {
	for _, cfg := range Providers() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if len(Providers()) != 3 {
		t.Fatal("expected three commercial providers")
	}
	if math.Abs(AWSLambda().MemoryGB()-10) > 1e-9 {
		t.Fatal("Lambda instance should bill 10 GB")
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Shape.Cores = 0 },
		func(c *Config) { c.SchedBaseSec = -1 },
		func(c *Config) { c.SchedServers = 0 },
		func(c *Config) { c.BuildServers = 0 },
		func(c *Config) { c.ShipServers = 0 },
		func(c *Config) { c.PodSize = -1 },
		func(c *Config) { c.GBSecondUSD = -1 },
		func(c *Config) { c.StorageGBps = 0 },
		func(c *Config) { c.JitterRel = 0.5 },
		func(c *Config) { c.MaxExecSec = 0 },
		// Finite stage constants whose one-instance path overflows, cold and warm.
		func(c *Config) { c.SchedBaseSec, c.BuildSec, c.ShipSec = 1e308, 1e308, 1e308 },
		func(c *Config) { c.SchedBaseSec, c.WarmStartSec = 1e308, 1e308 },
	}
	for i, mut := range mutations {
		cfg := AWSLambda()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	// Run and Eq. 2's probe refuse an overflowing path with Validate's error,
	// where the engine would panic on an event at +Inf.
	cfg := AWSLambda()
	cfg.SchedBaseSec, cfg.BuildSec, cfg.ShipSec = 1e308, 1e308, 1e308
	want := cfg.Validate().Error()
	if _, err := Run(cfg, Burst{Demand: testDemand(), Functions: 4, Degree: 4}); err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want %q", err, want)
	}
	if _, err := ScalingTime(cfg, 1, 20); err == nil || err.Error() != want {
		t.Fatalf("ScalingTime returned %v, want %q", err, want)
	}
}

func TestBurstValidation(t *testing.T) {
	good := Burst{Demand: testDemand(), Functions: 10, Degree: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Burst{
		{Demand: testDemand(), Functions: 0, Degree: 1},
		{Demand: testDemand(), Functions: 1, Degree: 0},
		{Demand: testDemand(), Functions: 1, Degree: 1, Warm: -1},
		{Demand: interfere.Demand{}, Functions: 1, Degree: 1},
	}
	for i, b := range bads {
		if b.Validate() == nil {
			t.Fatalf("bad burst %d accepted", i)
		}
	}
}

func TestBurstInstances(t *testing.T) {
	cases := []struct{ c, p, want int }{
		{5000, 1, 5000}, {5000, 8, 625}, {100, 7, 15}, {1, 40, 1}, {0, 3, 0},
		// C+P−1 overflows here; the count must not.
		{math.MaxInt, 1, math.MaxInt}, {math.MaxInt, 2, math.MaxInt/2 + 1},
		{math.MaxInt, math.MaxInt, 1}, {math.MaxInt - 1, math.MaxInt, 1},
	}
	for _, tc := range cases {
		b := Burst{Functions: tc.c, Degree: tc.p}
		if got := b.Instances(); got != tc.want {
			t.Fatalf("Instances(C=%d, P=%d) = %d, want %d", tc.c, tc.p, got, tc.want)
		}
	}
	// Validate caps the count at the int32 instance index.
	for _, tc := range []struct {
		c, p int
		ok   bool
	}{{math.MaxInt32, 1, true}, {math.MaxInt32 + 1, 1, false}, {math.MaxInt, 2, false}, {math.MaxInt, 1 << 33, true}} {
		err := Burst{Demand: testDemand(), Functions: tc.c, Degree: tc.p}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(C=%d, P=%d) = %v, want ok = %v", tc.c, tc.p, err, tc.ok)
		}
	}
}

func TestRunPartialLastInstance(t *testing.T) {
	// C=10, P=4 → instances of degree 4, 4, 2.
	res, err := Run(AWSLambda(), Burst{Demand: testDemand(), Functions: 10, Degree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines()) != 3 {
		t.Fatalf("instances %d, want 3", len(res.Timelines()))
	}
	total := 0
	for _, tl := range res.Timelines() {
		total += tl.Degree
	}
	if total != 10 {
		t.Fatalf("functions covered %d, want 10", total)
	}
	if res.Timelines()[2].Degree != 2 {
		t.Fatalf("last instance degree %d, want 2", res.Timelines()[2].Degree)
	}
}

func TestTimelineCausality(t *testing.T) {
	res, err := Run(AWSLambda(), Burst{Demand: testDemand(), Functions: 200, Degree: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range res.Timelines() {
		if !(tl.SchedDone > 0 && tl.SchedDone <= tl.BuildDone &&
			tl.BuildDone <= tl.ShipDone && tl.ShipDone < tl.Start && tl.Start < tl.End) {
			t.Fatalf("causality violated: %+v", tl)
		}
	}
}

func TestScalingTimeGrowsSuperlinearly(t *testing.T) {
	cfg := AWSLambda()
	scale := func(c int) float64 {
		res, err := Run(cfg, Burst{Demand: testDemand(), Functions: c, Degree: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.ScalingTime()
	}
	s1000, s2000, s4000 := scale(1000), scale(2000), scale(4000)
	if !(s1000 < s2000 && s2000 < s4000) {
		t.Fatalf("scaling not increasing: %g %g %g", s1000, s2000, s4000)
	}
	// Superlinear: doubling C should more than double scaling time at the
	// quadratic-dominated end.
	if s4000 < 2.5*s2000 {
		t.Fatalf("scaling not superlinear: 2000→%g, 4000→%g", s2000, s4000)
	}
}

// TestScalingTimeAppIndependent verifies the paper's key enabling insight
// (Fig. 5b): the scaling time depends only on the number of concurrent
// instances, not on which application they run.
func TestScalingTimeAppIndependent(t *testing.T) {
	cfg := AWSLambda()
	var ref float64
	for i, w := range workload.All() {
		res, err := Run(cfg, Burst{Demand: w.Demand(), Functions: 800, Degree: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s := res.ScalingTime()
		if i == 0 {
			ref = s
			continue
		}
		if math.Abs(s-ref) > 1e-9 {
			t.Fatalf("%s scaling %g differs from reference %g", w.Name(), s, ref)
		}
	}
}

// TestExecTimeFlatInConcurrency mirrors paper Fig. 5a: per-instance
// execution time must not drift with the concurrency level (<5%).
func TestExecTimeFlatInConcurrency(t *testing.T) {
	cfg := AWSLambda()
	exec := func(c int) float64 {
		res, err := Run(cfg, Burst{Demand: testDemand(), Functions: c, Degree: 1, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanExecSeconds()
	}
	e500, e5000 := exec(500), exec(5000)
	if math.Abs(e500-e5000)/e500 > 0.05 {
		t.Fatalf("execution time drifted with concurrency: %g vs %g", e500, e5000)
	}
}

func TestPackingReducesScalingTime(t *testing.T) {
	cfg := AWSLambda()
	run := func(p int) *Result {
		res, err := Run(cfg, Burst{Demand: testDemand(), Functions: 2000, Degree: p, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, packed := run(1), run(8)
	if packed.ScalingTime() >= base.ScalingTime() {
		t.Fatalf("packing did not reduce scaling: %g vs %g", packed.ScalingTime(), base.ScalingTime())
	}
	if packed.MeanExecSeconds() <= base.MeanExecSeconds() {
		t.Fatalf("packing should increase per-instance execution: %g vs %g",
			packed.MeanExecSeconds(), base.MeanExecSeconds())
	}
	if packed.ExpenseUSD() >= base.ExpenseUSD() {
		t.Fatalf("packing at moderate degree should cost less: $%g vs $%g",
			packed.ExpenseUSD(), base.ExpenseUSD())
	}
}

func TestWarmInstancesSkipColdPath(t *testing.T) {
	cfg := AWSLambda()
	res, err := Run(cfg, Burst{Demand: testDemand(), Functions: 50, Degree: 1, Warm: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, Burst{Demand: testDemand(), Functions: 50, Degree: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScalingTime() >= cold.ScalingTime() {
		t.Fatalf("warm burst not faster: %g vs %g", res.ScalingTime(), cold.ScalingTime())
	}
	for _, tl := range res.Timelines() {
		if !tl.Warm {
			t.Fatal("instance not marked warm")
		}
		if tl.BuildDone != tl.SchedDone || tl.ShipDone != tl.SchedDone {
			t.Fatalf("warm instance went through build/ship: %+v", tl)
		}
	}
}

func TestPodsShareBuilds(t *testing.T) {
	cfg := AWSLambda()
	cfg.PodSize = 8
	res, err := Run(cfg, Burst{Demand: testDemand(), Functions: 64, Degree: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	noPods := AWSLambda()
	ref, err := Run(noPods, Burst{Demand: testDemand(), Functions: 64, Degree: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScalingTime() >= ref.ScalingTime() {
		t.Fatalf("pods should start faster: %g vs %g", res.ScalingTime(), ref.ScalingTime())
	}
	// Pod members share the leader's ship completion.
	for p := 0; p < 8; p++ {
		ship := res.Timelines()[p*8].ShipDone
		for i := p * 8; i < p*8+8; i++ {
			if res.Timelines()[i].ShipDone != ship {
				t.Fatalf("pod %d member %d has ShipDone %g, leader %g",
					p, i, res.Timelines()[i].ShipDone, ship)
			}
		}
	}
}

func TestExecLimitEnforced(t *testing.T) {
	cfg := AWSLambda()
	cfg.MaxExecSec = 50
	_, err := Run(cfg, Burst{Demand: testDemand(), Functions: 10, Degree: 1, Seed: 1})
	if !errors.Is(err, ErrExecLimit) {
		t.Fatalf("expected ErrExecLimit, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := AWSLambda()
	b := Burst{Demand: testDemand(), Functions: 300, Degree: 4, Seed: 11}
	a, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalServiceTime() != c.TotalServiceTime() || a.ExpenseUSD() != c.ExpenseUSD() {
		t.Fatal("identical bursts produced different results")
	}
}

func TestServiceQuantiles(t *testing.T) {
	res, err := Run(AWSLambda(), Burst{Demand: testDemand(), Functions: 1000, Degree: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	med := res.ServiceTimeAtQuantile(50)
	tail := res.ServiceTimeAtQuantile(95)
	total := res.TotalServiceTime()
	if !(med <= tail && tail <= total) {
		t.Fatalf("quantiles not ordered: med=%g tail=%g total=%g", med, tail, total)
	}
	if med <= 0 {
		t.Fatal("non-positive median service time")
	}
}

func TestStageBreakdownSumsToScaling(t *testing.T) {
	res, err := Run(AWSLambda(), Burst{Demand: testDemand(), Functions: 500, Degree: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sched, build, ship, boot := res.StageBreakdown()
	sum := sched + build + ship + boot
	if math.Abs(sum-res.ScalingTime()) > 1e-6 {
		t.Fatalf("breakdown %g+%g+%g+%g = %g ≠ scaling %g",
			sched, build, ship, boot, sum, res.ScalingTime())
	}
	for i, v := range []float64{sched, build, ship, boot} {
		if v < 0 {
			t.Fatalf("negative component %d: %g", i, v)
		}
	}
}

func TestSharedInputBilledOncePerInstance(t *testing.T) {
	shared := testDemand() // Video has SharedInput
	unshared := shared
	unshared.SharedInput = false
	cfg := AWSLambda()
	cfg.Storage.GetRequestUSD = 1 // make gets dominate the bill
	b := Burst{Demand: shared, Functions: 100, Degree: 10, Seed: 1}
	rs, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	b.Demand = unshared
	ru, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.StorageUSD >= ru.StorageUSD {
		t.Fatalf("shared input should cut get fees: $%g vs $%g", rs.StorageUSD, ru.StorageUSD)
	}
}

func TestEgressFeeShrinksWithPacking(t *testing.T) {
	cfg := GoogleCloudFunctions() // has a per-GB networking fee
	d := workload.Sort{}.Demand() // shuffle-heavy
	base, err := Run(cfg, Burst{Demand: d, Functions: 300, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Run(cfg, Burst{Demand: d, Functions: 300, Degree: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if packed.StorageUSD >= base.StorageUSD {
		t.Fatalf("packing should shrink storage+egress cost: $%g vs $%g",
			packed.StorageUSD, base.StorageUSD)
	}
}

func TestWithMemoryScalesResources(t *testing.T) {
	base := AWSLambda()
	small, err := base.WithMemory(3584)
	if err != nil {
		t.Fatal(err)
	}
	if small.Shape.Cores != 2 {
		t.Fatalf("3584 MB should get 2 vCPUs, got %d", small.Shape.Cores)
	}
	if small.Shape.MemoryMB != 3584 {
		t.Fatalf("memory %g", small.Shape.MemoryMB)
	}
	wantBW := base.Shape.MemBWMBps * 2 / 6
	if math.Abs(small.Shape.MemBWMBps-wantBW) > 1e-9 {
		t.Fatalf("bandwidth %g, want %g", small.Shape.MemBWMBps, wantBW)
	}
	// Billing follows the configured memory.
	if math.Abs(small.MemoryGB()-3.5) > 1e-9 {
		t.Fatalf("billed memory %g GB", small.MemoryGB())
	}
	// Tiny sizes floor at one vCPU.
	tiny, err := base.WithMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Shape.Cores != 1 {
		t.Fatalf("512 MB should floor at 1 vCPU, got %d", tiny.Shape.Cores)
	}
	if _, err := base.WithMemory(0); err == nil {
		t.Fatal("zero memory accepted")
	}
	if _, err := base.WithMemory(20480); err == nil {
		t.Fatal("above-maximum memory accepted")
	}
}

// TestMaxMemoryWinsAtHighConcurrency confirms the paper's Sec. 3 choice:
// at high concurrency the 10 GB instance (deepest packing, fewest
// instances) beats smaller sizes on service time.
func TestMaxMemoryWinsAtHighConcurrency(t *testing.T) {
	d := workload.Video{}.Demand()
	const c = 3000
	service := map[float64]float64{}
	for _, mb := range []float64{3584, 10240} {
		cfg, err := AWSLambda().WithMemory(mb)
		if err != nil {
			t.Fatal(err)
		}
		// Run at each size's own memory-bound max degree.
		deg := cfg.Shape.MaxDegree(d)
		if deg < 1 {
			t.Fatalf("%g MB cannot host the function", mb)
		}
		res, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: deg, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		service[mb] = res.TotalServiceTime()
	}
	if service[10240] >= service[3584] {
		t.Fatalf("10 GB should win at C=%d: %g vs %g", c, service[10240], service[3584])
	}
}
