package platform

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Golden files are regenerated with `go test ./internal/platform -update`
// (the repo convention: every golden test watches this flag).
var update = flag.Bool("update", false, "rewrite golden files")

// TestLifecycleSpansReconcileWithStageBreakdown checks the exporter's core
// invariant: the recorded spans tile each instance's critical path exactly
// as Result.StageBreakdown slices it, so per-stage sums reconcile with the
// paper's Fig. 2 decomposition.
func TestLifecycleSpansReconcileWithStageBreakdown(t *testing.T) {
	mem := &obs.Memory{}
	res, err := Run(AWSLambda(), Burst{
		Demand: testDemand(), Functions: 200, Degree: 4, Seed: 7,
		Recorder: mem, Label: "reconcile",
	})
	if err != nil {
		t.Fatal(err)
	}
	bursts := mem.Bursts()
	if len(bursts) != 1 {
		t.Fatalf("got %d bursts, want 1", len(bursts))
	}

	// Locate the critical-path instance: the last to start execution.
	last := 0
	for i, tl := range res.Timelines() {
		if tl.Start >= res.Timelines()[last].Start {
			last = i
		}
	}
	durs := map[obs.Stage]float64{}
	for _, s := range bursts[0].Spans {
		if s.Instance == last {
			durs[s.Stage] += s.DurSec()
		}
	}
	sched, build, ship, boot := res.StageBreakdown()
	for _, c := range []struct {
		stage obs.Stage
		want  float64
	}{
		{obs.StageSched, sched},
		{obs.StageBuild, build},
		{obs.StageShip, ship},
		{obs.StageBoot, boot},
	} {
		if math.Abs(durs[c.stage]-c.want) > 1e-9 {
			t.Errorf("stage %s: spans sum to %g, StageBreakdown says %g",
				c.stage, durs[c.stage], c.want)
		}
	}
	// Spans must also cover every instance's full critical path with no
	// gaps on a clean (throttle-free, unstaggered) run: each span starts
	// where the previous one ended, the first at t=0.
	ends := map[int]float64{}
	for _, s := range bursts[0].Spans {
		if s.DurSec() <= 0 {
			t.Errorf("instance %d: non-positive span %v", s.Instance, s)
		}
		if math.Abs(ends[s.Instance]-s.StartSec) > 1e-9 {
			t.Errorf("instance %d: gap before %s span at %g (prev end %g)",
				s.Instance, s.Stage, s.StartSec, ends[s.Instance])
		}
		ends[s.Instance] = s.EndSec
	}
	for i, tl := range res.Timelines() {
		if math.Abs(ends[i]-tl.End) > 1e-9 {
			t.Errorf("instance %d: spans end at %g, timeline at %g", i, ends[i], tl.End)
		}
	}
}

// TestChromeTraceGolden locks the exported Chrome trace of a deterministic
// faulty burst byte-for-byte. The simulator is seeded and single-threaded
// and the exporter emits integer microseconds in a fixed order, so any diff
// is a real behaviour change. On an intended format change, regenerate with
// `go test ./internal/platform -run TestChromeTraceGolden -update` and commit
// the new golden file.
func TestChromeTraceGolden(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.0004
	cfg.StartFailureProb = 0.05
	cfg.StragglerProb = 0.05
	cfg.StragglerFactor = 4
	cfg.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 2, CapSec: 30}
	cfg.Hedge = resilience.Hedge{Quantile: 90}
	mem := &obs.Memory{}
	if _, err := Run(cfg, Burst{
		Demand: testDemand(), Functions: 40, Degree: 4, Seed: 11,
		Recorder: mem, Label: "golden",
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, mem.Bursts()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/platform -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from %s (rerun with -update if the change is intended)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestRecorderSeesFaultEvents checks that injected faults surface as typed
// events with the expected kinds.
func TestRecorderSeesFaultEvents(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.001
	cfg.StartFailureProb = 0.2
	mem := &obs.Memory{}
	res, err := Run(cfg, Burst{
		Demand: testDemand(), Functions: 100, Degree: 2, Seed: 3,
		Recorder: mem, Label: "faults",
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.EventKind]int{}
	for _, e := range mem.Bursts()[0].Events {
		counts[e.Kind]++
	}
	if counts[obs.EventStartRetry] != res.StartRetries {
		t.Errorf("start-retry events %d ≠ result retries %d",
			counts[obs.EventStartRetry], res.StartRetries)
	}
	if counts[obs.EventCrash] != res.Crashes {
		t.Errorf("crash events %d ≠ result crashes %d", counts[obs.EventCrash], res.Crashes)
	}
	if res.StartRetries == 0 && res.Crashes == 0 {
		t.Skip("seed produced no faults; pick another seed")
	}
}

// TestNilRecorderSameResult guards the zero-cost claim's twin requirement:
// recording must not perturb the simulation itself. It also pins the cost
// side of the claim by measuring allocations with and without a recorder:
// before obs.Memory pre-sized its buffers from the burst's instance count,
// an observed 300-instance run paid ≈7 allocs/instance in span/event
// regrowth copies; with pre-sizing it pays a handful of fixed buffers per
// burst, so the observed-minus-nil delta per instance stays near zero.
func TestNilRecorderSameResult(t *testing.T) {
	b := Burst{Demand: testDemand(), Functions: 300, Degree: 3, Seed: 5}
	plain, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	b.Recorder = &obs.Memory{}
	observed, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalServiceTime() != observed.TotalServiceTime() ||
		plain.ExpenseUSD() != observed.ExpenseUSD() {
		t.Fatalf("recorder changed the run: service %g vs %g, expense %g vs %g",
			plain.TotalServiceTime(), observed.TotalServiceTime(),
			plain.ExpenseUSD(), observed.ExpenseUSD())
	}

	n := float64(b.Instances())
	bare := b
	bare.Recorder = nil
	nilAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(AWSLambda(), bare); err != nil {
			t.Error(err)
		}
	}) / n
	recAllocs := testing.AllocsPerRun(5, func() {
		ob := b
		ob.Recorder = &obs.Memory{} // fresh recorder: Memory accumulates bursts
		if _, err := Run(AWSLambda(), ob); err != nil {
			t.Error(err)
		}
	}) / n
	t.Logf("allocs/instance: nil recorder %.3f, Memory recorder %.3f", nilAllocs, recAllocs)
	// Under the race detector sync.Pool is lossy, so both counts are noise.
	if delta := recAllocs - nilAllocs; delta > 1 && !raceEnabled {
		t.Errorf("Memory recorder adds %.2f allocs/instance — pre-sized buffers should make the delta ≈0", delta)
	}
}
