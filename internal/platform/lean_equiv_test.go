package platform

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// A run carries only the columns its Config can write (batch.go): a
// dice-free burst has no fault or hedge columns and every fold reads the
// missing ones as zero. The proof that this changes no bit is differential:
// widen a lean Result to the full thirteen columns, the six new ones zero as
// they were before the columns became conditional, and every figure of merit,
// the bill, the row view and the roll-up must not move.

// widened returns res with full columns — the lean ones copied, the fault
// and hedge ones zero — and the bill and the summary folded over them.
func widened(t *testing.T, res *Result, groupsOf func(i int) []demandGroup) *Result {
	t.Helper()
	if res.cols.faulty() {
		t.Fatal("widened wants a lean Result")
	}
	full := &Result{Config: res.Config, Burst: res.Burst, Bins: res.Bins,
		SchedBusySec: res.SchedBusySec, BuildBusySec: res.BuildBusySec, ShipBusySec: res.ShipBusySec,
		cols: newInstanceColumns(res.cols.n, true)}
	full.cols.copyAt(0, res.resolved())
	full.fold(true, groupsOf)
	return full
}

// sameObservables requires every exported observable of two Results to agree
// bit for bit: each metric method, Timelines(), the USD and busy fields and
// the fault roll-up. trace.FromResult is a pure function of exactly these
// (it cannot be imported here — it imports this package — and has its own
// lean-vs-full test beside it).
func sameObservables(t *testing.T, what string, got, want *Result) {
	t.Helper()
	same := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %s = %v (%#x) vs %v (%#x)", what, name, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	if got.Instances() != want.Instances() {
		t.Fatalf("%s: %d instances vs %d", what, got.Instances(), want.Instances())
	}
	qs := []float64{95, 50, 0, 100, 99.9}
	scalars := func(r *Result) map[string]float64 {
		m := map[string]float64{
			"ScalingTime": r.ScalingTime(), "TotalServiceTime": r.TotalServiceTime(),
			"ServiceTimeAtQuantile(95)": r.ServiceTimeAtQuantile(95), "FunctionSeconds": r.FunctionSeconds(),
			"MeanExecSeconds": r.MeanExecSeconds(), "FailedSeconds": r.FailedSeconds(),
			"ComputeUSD": r.ComputeUSD, "RequestUSD": r.RequestUSD, "StorageUSD": r.StorageUSD,
			"WastedUSD": r.WastedUSD, "ExpenseUSD": r.ExpenseUSD(),
			"SchedBusySec": r.SchedBusySec, "BuildBusySec": r.BuildBusySec, "ShipBusySec": r.ShipBusySec,
		}
		for i, v := range r.ServiceTimeAtQuantiles(qs...) {
			m[fmt.Sprintf("ServiceTimeAtQuantiles(%g)", qs[i])] = v
		}
		m["StageBreakdown.sched"], m["StageBreakdown.build"], m["StageBreakdown.ship"], m["StageBreakdown.boot"] = r.StageBreakdown()
		return m
	}
	wantScalars := scalars(want)
	for name, g := range scalars(got) {
		same(name, g, wantScalars[name])
	}
	gotFaults := rowFaults{got.StartRetries, got.Crashes, got.Timeouts, got.HedgesLaunched, got.HedgesWon}
	wantFaults := rowFaults{want.StartRetries, want.Crashes, want.Timeouts, want.HedgesLaunched, want.HedgesWon}
	if gotFaults != wantFaults {
		t.Errorf("%s: fault roll-up %+v vs %+v", what, gotFaults, wantFaults)
	}
	gt, wt := got.Timelines(), want.Timelines()
	for i := range wt {
		same(fmt.Sprintf("Start(%d)", i), got.Start(i), want.Start(i))
		same(fmt.Sprintf("End(%d)", i), got.End(i), want.End(i))
		if !reflect.DeepEqual(gt[i], wt[i]) { // times here are never NaN
			t.Fatalf("%s: Timelines()[%d] = %+v vs %+v", what, i, gt[i], wt[i])
		}
	}
}

// TestLeanColumnsDifferential: for random dice-free bursts — plain, packed
// with a short last instance, warm prefixes, staggered, throttled, mixed
// bins; pods of one and of several — the lean Result and its widening agree
// on every observable, flags carry nothing but the
// warm bit, and the fault columns are absent exactly when the Config is not
// faulty.
func TestLeanColumnsDifferential(t *testing.T) {
	video := workload.Video{}.Demand()
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1, SharedInput: true}
	shuffly := interfere.Demand{CPUSeconds: 12, IOSeconds: 4, MemoryMB: 256, InputMB: 20, OutputMB: 8, ShuffleFraction: 0.5}
	rng := rand.New(rand.NewSource(1618033))

	var verified, seenPods, seenPodOfOne, seenWarm, seenStagger, seenThrottled, seenMixed int
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		cfg := Providers()[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cfg.PodSize = 2 + rng.Intn(7)
		}
		throttled := rng.Intn(4) == 0
		if throttled {
			cfg.ConcurrencyLimit = 1 + rng.Intn(100)
		}
		var warm int
		if rng.Intn(2) == 0 {
			warm = 1 + rng.Intn(12)
		}
		var stagger float64
		if rng.Intn(3) == 0 {
			stagger = rng.Float64() * 0.01
		}
		seed := rng.Int63()

		var (
			what     string
			res      *Result
			err      error
			groupsOf func(i int) []demandGroup
		)
		if trial%3 != 0 {
			c, deg := 1+rng.Intn(800), 1+rng.Intn(8)
			d := video
			if trial%2 == 0 {
				d = shuffly
			}
			b := Burst{Demand: d, Functions: c, Degree: deg, Warm: warm, StaggerSec: stagger, Seed: seed}
			what = fmt.Sprintf("trial %d Run(%s C=%d P=%d pod=%d seed=%d)", trial, cfg.Name, c, deg, cfg.PodSize, seed)
			res, err = Run(cfg, b)
			n := b.Instances()
			groupsOf = func(i int) []demandGroup {
				resident := deg
				if i == n-1 {
					resident = c - i*deg
				}
				return []demandGroup{{d: d, n: resident}}
			}
		} else {
			bins := make([]Bin, 1+rng.Intn(120))
			for i := range bins {
				for k := rng.Intn(3); k >= 0; k-- {
					bins[i].Demands = append(bins[i].Demands, light)
				}
				if rng.Intn(2) == 0 {
					bins[i].Demands = append(bins[i].Demands, video)
				}
			}
			what = fmt.Sprintf("trial %d RunMixed(%s bins=%d pod=%d seed=%d)", trial, cfg.Name, len(bins), cfg.PodSize, seed)
			res, err = RunMixed(cfg, MixedBurst{Bins: bins, Warm: warm, StaggerSec: stagger, Seed: seed})
			groupsOf = func(i int) []demandGroup { return groupDemands(bins[i].Demands) }
		}
		if err != nil {
			continue // this degree does not fit the provider's limit: not a burst
		}
		c := &res.cols
		if c.faulty() || c.failedSec != nil || c.hedgeExtraSec != nil || c.crashes != nil || c.timeouts != nil || c.straggled != nil {
			t.Fatalf("%s: a dice-free run carries fault columns", what)
		}
		for i, f := range c.flags {
			if f&^flagWarm != 0 {
				t.Fatalf("%s: flags[%d] = %#b: a dice-free run set more than the warm bit", what, i, f)
			}
		}
		sameObservables(t, what, res, widened(t, res, groupsOf))
		verified++
		if cfg.PodSize > 1 {
			seenPods++
		} else {
			seenPodOfOne++
		}
		if warm > 0 {
			seenWarm++
		}
		if stagger > 0 {
			seenStagger++
		}
		if throttled {
			seenThrottled++
		}
		if trial%3 == 0 {
			seenMixed++
		}
	}
	if verified < 50 {
		t.Errorf("only %d of %d trials were simulated, want ≥ 50", verified, trials)
	}
	for name, n := range map[string]int{
		"pods": seenPods, "pods of one": seenPodOfOne, "warm prefixes": seenWarm, "staggered arrival": seenStagger,
		"an account throttle": seenThrottled, "mixed bins": seenMixed,
	} {
		if n == 0 {
			t.Errorf("sweep never exercised %s", name)
		}
	}

	// The other side of the predicate: each fault knob alone brings the
	// columns back, whether or not its dice ever land.
	for name, mutate := range map[string]func(*Config){
		"start failures": func(c *Config) { c.StartFailureProb = 1e-9 },
		"stragglers":     func(c *Config) { c.StragglerProb, c.StragglerFactor = 1e-9, 2 },
		"crashes":        func(c *Config) { c.CrashRate = 1e-12 },
		"idle timeout":   func(c *Config) { c.ExecTimeoutSec = 800 },
		"hedging":        func(c *Config) { c.Hedge.Quantile = 99 },
	} {
		cfg := AWSLambda()
		mutate(&cfg)
		res, err := Run(cfg, Burst{Demand: video, Functions: 40, Degree: 4, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := &res.cols; !c.faulty() || len(c.failedSec) != c.n || len(c.hedgeExtraSec) != c.n || len(c.straggled) != c.n {
			t.Errorf("%s: a faulty run is missing fault columns", name)
		}
	}
}

// TestRunRejectsNonFiniteDemand: the other validators on Run's path. A NaN
// in a Demand or a Shape, or a NaN or infinite stagger, used to validate
// clean — every check was `x < 0`-shaped — and panic the simulator ("sim:
// scheduling event at non-finite time NaN") or run as if unstaggered where
// an error was due. The validators' own tests walk every field; this one
// holds Run, RunSharded and RunMixed to the error.
func TestRunRejectsNonFiniteDemand(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := interfere.Demand{CPUSeconds: v, MemoryMB: 128}
		b := Burst{Demand: d, Functions: 8, Degree: 1, Seed: 1}
		m := MixedBurst{Bins: []Bin{{Demands: []interfere.Demand{testDemand(), d}}}, Seed: 1}
		shaped := AWSLambda()
		shaped.Shape.IsolationFactor = v
		for what, run := range map[string]func() (*Result, error){
			"Run":        func() (*Result, error) { return Run(AWSLambda(), b) },
			"RunSharded": func() (*Result, error) { return RunSharded(AWSLambda(), b, Sharding{Shards: 2}) },
			"RunMixed":   func() (*Result, error) { return RunMixed(AWSLambda(), m) },
			"Run on a non-finite Shape": func() (*Result, error) {
				return Run(shaped, Burst{Demand: testDemand(), Functions: 8, Degree: 1, Seed: 1})
			},
			"Run with a non-finite stagger": func() (*Result, error) {
				return Run(AWSLambda(), Burst{Demand: testDemand(), Functions: 8, Degree: 1, StaggerSec: v, Seed: 1})
			},
			"RunMixed with a non-finite stagger": func() (*Result, error) {
				return RunMixed(AWSLambda(), MixedBurst{Bins: []Bin{{Demands: []interfere.Demand{testDemand()}}}, StaggerSec: v, Seed: 1})
			},
		} {
			if _, err := run(); err == nil {
				t.Errorf("%s with %v ran", what, v)
			}
		}
	}
}

// TestPodOfOneRetryDifferential drives the path a pod of one takes in place
// of podState — a retried attempt is its own proof that the image shipped —
// against the closure oracle and its pods: start failures,
// crashes and timeouts, under every backoff schedule, with pods of one, pods
// of several and warm-led pods (a warm prefix ending inside a pod promotes
// the first cold member to leader) side by side. Results, column by column,
// and traces are the oracle's.
func TestPodOfOneRetryDifferential(t *testing.T) {
	d := workload.Video{}.Demand()
	rng := rand.New(rand.NewSource(2236067))
	var podOfOneRetries, podOfOneCrashes, podRetries, warmLed, verified int
	for trial := 0; trial < 36; trial++ {
		cfg := AWSLambda()
		cfg.PodSize = []int{0, 1, 1, 3, 5}[rng.Intn(5)]
		cfg.StartFailureProb = 0.02 + rng.Float64()*0.15
		cfg.CrashRate = rng.Float64() * 0.002
		if rng.Intn(3) == 0 {
			cfg.StragglerProb, cfg.StragglerFactor = 0.1, 2
			cfg.ExecTimeoutSec = 1.5 * interfere.ExecSeconds(d, cfg.Shape, 4)
		}
		cfg.Retry = resilience.Backoff{
			Kind: resilience.Kind(rng.Intn(3)), BaseSec: 0.2 + rng.Float64(), CapSec: 20, MaxAttempts: 40,
		}
		if rng.Intn(4) == 0 {
			cfg.ConcurrencyLimit = 20 + rng.Intn(100)
		}
		b := Burst{Demand: d, Functions: 4 * (20 + rng.Intn(200)), Degree: 4, Warm: rng.Intn(8), Seed: rng.Int63()}
		typed, closure, typedTrace, closureTrace := runTypedAndClosure(t, cfg, b)
		if typed == nil {
			continue // both exhausted the same retry budget
		}
		what := fmt.Sprintf("trial %d (pod=%d warm=%d seed=%d)", trial, cfg.PodSize, b.Warm, b.Seed)
		sameResultBits(t, what, typed, closure)
		if string(typedTrace) != string(closureTrace) {
			t.Fatalf("%s: JSONL traces differ between typed and closure control planes", what)
		}
		verified++
		if cfg.PodSize <= 1 {
			podOfOneRetries += typed.StartRetries
			podOfOneCrashes += typed.Crashes + typed.Timeouts
		} else {
			podRetries += typed.StartRetries + typed.Crashes
			if b.Warm%cfg.PodSize != 0 {
				warmLed++
			}
		}
	}
	if verified < 30 {
		t.Errorf("only %d trials completed, want ≥ 30", verified)
	}
	for name, n := range map[string]int{
		"start retries in a pod of one": podOfOneRetries, "crash or timeout retries in a pod of one": podOfOneCrashes,
		"retries inside real pods": podRetries, "warm-led pods": warmLed,
	} {
		if n == 0 {
			t.Errorf("sweep never exercised %s", name)
		}
	}
}

// TestScratchReuseAcrossFaultiness: a pooled scratch sizes and clears its
// backoff and fault scratch only for faulty runs, so the sequence that could
// leak is faulty → dice-free → faulty on one scratch. Decorrelated backoff
// reads the previous delay of each instance; a stale one would move every
// retry. Each run must match, bit for bit, its run on an empty pool.
func TestScratchReuseAcrossFaultiness(t *testing.T) {
	d := workload.Video{}.Demand()
	clean := AWSLambda()
	faulty := clean
	faulty.StartFailureProb = 0.1
	faulty.CrashRate = 0.001
	faulty.Retry = resilience.Backoff{Kind: resilience.Decorrelated, BaseSec: 0.3, CapSec: 30, MaxAttempts: 40}
	faulty.Hedge.Quantile = 90

	type run struct {
		cfg Config
		b   Burst
	}
	runs := []run{
		{faulty, Burst{Demand: d, Functions: 1200, Degree: 2, Seed: 3}},
		{clean, Burst{Demand: d, Functions: 900, Degree: 1, Warm: 7, Seed: 4}},
		{faulty, Burst{Demand: d, Functions: 1600, Degree: 2, Seed: 5}}, // longer than both: reads past the clean run's length
		{clean, Burst{Demand: d, Functions: 4, Degree: 4, Seed: 6}},
		{faulty, Burst{Demand: d, Functions: 1200, Degree: 2, Seed: 3}},
	}
	want := make([]*Result, len(runs))
	for i, r := range runs {
		drainScratchPool()
		res, err := Run(r.cfg, r.b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	if want[0].StartRetries == 0 || want[0].Crashes == 0 {
		t.Fatal("the faulty burst never retried: the reuse below proves nothing")
	}
	sc := new(runScratch)
	withScratch(sc, func() {
		for i, r := range runs {
			got, err := Run(r.cfg, r.b)
			if err != nil {
				t.Fatal(err)
			}
			sameResultBits(t, fmt.Sprintf("run %d on the shared scratch", i), got, want[i])
			if lean := !r.cfg.faulty(); lean != (len(sc.batch.prevDelay) == 0 && len(sc.batch.pendDur) == 0) {
				t.Errorf("run %d: backoff scratch sized %d/%d on a run with faulty = %v",
					i, len(sc.batch.prevDelay), len(sc.batch.pendDur), !lean)
			}
		}
	})
}

// TestConfigValidateRejectsNonFinite: every float field of Config, and of the
// Backoff and Hedge policies inside it, refuses NaN and ±Inf with an error.
// Each used to slip through an `x < 0` check, to be read as "no faults" or to
// panic inside the engine as a non-finite delay. (MaxExecSec = +Inf is the
// one allowed infinity: no limit.)
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"SchedBaseSec":           func(c *Config) *float64 { return &c.SchedBaseSec },
		"SchedPerBusySec":        func(c *Config) *float64 { return &c.SchedPerBusySec },
		"BuildSec":               func(c *Config) *float64 { return &c.BuildSec },
		"BuildGrowthSec":         func(c *Config) *float64 { return &c.BuildGrowthSec },
		"ShipSec":                func(c *Config) *float64 { return &c.ShipSec },
		"ShipGrowthSec":          func(c *Config) *float64 { return &c.ShipGrowthSec },
		"BootSec":                func(c *Config) *float64 { return &c.BootSec },
		"WarmStartSec":           func(c *Config) *float64 { return &c.WarmStartSec },
		"GBSecondUSD":            func(c *Config) *float64 { return &c.GBSecondUSD },
		"PerRequestUSD":          func(c *Config) *float64 { return &c.PerRequestUSD },
		"Storage.PutRequestUSD":  func(c *Config) *float64 { return &c.Storage.PutRequestUSD },
		"Storage.GetRequestUSD":  func(c *Config) *float64 { return &c.Storage.GetRequestUSD },
		"Storage.EgressPerGBUSD": func(c *Config) *float64 { return &c.Storage.EgressPerGBUSD },
		"StorageGBps":            func(c *Config) *float64 { return &c.StorageGBps },
		"JitterRel":              func(c *Config) *float64 { return &c.JitterRel },
		"MaxExecSec":             func(c *Config) *float64 { return &c.MaxExecSec },
		"StartFailureProb":       func(c *Config) *float64 { return &c.StartFailureProb },
		"CrashRate":              func(c *Config) *float64 { return &c.CrashRate },
		"StragglerProb":          func(c *Config) *float64 { return &c.StragglerProb },
		"StragglerFactor":        func(c *Config) *float64 { return &c.StragglerFactor },
		"ExecTimeoutSec":         func(c *Config) *float64 { return &c.ExecTimeoutSec },
		"Retry.BaseSec":          func(c *Config) *float64 { return &c.Retry.BaseSec },
		"Retry.CapSec":           func(c *Config) *float64 { return &c.Retry.CapSec },
		"Retry.Factor":           func(c *Config) *float64 { return &c.Retry.Factor },
		"Retry.MaxElapsedSec":    func(c *Config) *float64 { return &c.Retry.MaxElapsedSec },
		"Hedge.Quantile":         func(c *Config) *float64 { return &c.Hedge.Quantile },
		"Hedge.MinDelaySec":      func(c *Config) *float64 { return &c.Hedge.MinDelaySec },
	}
	// Every float64 reachable from Config outside the Shape (interfere's own
	// validator) must be in the table: a field added later cannot skip it.
	var count func(reflect.Type) int
	count = func(ty reflect.Type) (n int) {
		for i := 0; i < ty.NumField(); i++ {
			switch f := ty.Field(i); {
			case f.Type.Kind() == reflect.Float64:
				n++
			case f.Type.Kind() == reflect.Struct && f.Name != "Shape":
				n += count(f.Type)
			}
		}
		return n
	}
	if n := count(reflect.TypeOf(Config{})); n != len(fields) {
		t.Fatalf("Config holds %d float fields outside its Shape, the table %d", n, len(fields))
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if name == "MaxExecSec" && v == math.Inf(1) {
				continue
			}
			cfg := AWSLambda()
			cfg.StragglerProb, cfg.StragglerFactor = 0.05, 2 // a fault knob's value is read only when it is on
			*field(&cfg) = v
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v validated clean", name, v)
				continue
			}
			if _, err := Run(cfg, Burst{Demand: testDemand(), Functions: 8, Degree: 1, Seed: 1}); err == nil {
				t.Errorf("%s = %v: Run accepted the configuration", name, v)
			}
		}
	}
}
