package platform

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/workload"
)

// withReferenceEngine runs fn with every burst simulated on the retained
// heap engine (the differential oracle) instead of the production wheel.
func withReferenceEngine(fn func()) {
	useReferenceEngine = true
	defer func() { useReferenceEngine = false }()
	fn()
}

// runBoth simulates the same burst on the wheel and the heap engine and
// returns both results plus their JSONL trace bytes.
func runBoth(t *testing.T, cfg Config, b Burst) (wheel, heap *Result, wheelTrace, heapTrace []byte) {
	t.Helper()
	var wbuf, hbuf bytes.Buffer
	wb := b
	wb.Recorder = obs.NewJSONL(&wbuf)
	wheel, err := Run(cfg, wb)
	if err != nil {
		t.Fatalf("wheel run: %v", err)
	}
	hb := b
	hb.Recorder = obs.NewJSONL(&hbuf)
	withReferenceEngine(func() {
		heap, err = Run(cfg, hb)
	})
	if err != nil {
		t.Fatalf("heap run: %v", err)
	}
	return wheel, heap, wbuf.Bytes(), hbuf.Bytes()
}

// TestBurstHeapVsWheelDifferential is the platform half of the engine
// determinism proof: at randomized (C, degree, fault-rate, seed) points the
// wheel-backed simulation must reproduce the heap-backed one bit-for-bit —
// timelines, billing, fault counters, and the JSONL event trace.
func TestBurstHeapVsWheelDifferential(t *testing.T) {
	d := workload.Video{}.Demand()
	rng := rand.New(rand.NewSource(4242))
	diceFree := 0
	defer func() {
		if diceFree == 0 {
			t.Error("sweep never ran a dice-free burst through the engines")
		}
	}()
	for trial := 0; trial < 40; trial++ {
		cfg := AWSLambda()
		c := 1 + rng.Intn(800)
		deg := 1 + rng.Intn(16)
		if rng.Intn(2) == 0 {
			cfg.CrashRate = rng.Float64() * 0.002
			cfg.StartFailureProb = rng.Float64() * 0.1
			cfg.RetryDelaySec = 0.5
			cfg.StragglerProb = rng.Float64() * 0.1
			cfg.StragglerFactor = 2
		}
		if rng.Intn(3) == 0 {
			cfg.Hedge.Quantile = 90
		}
		if rng.Intn(4) == 0 {
			cfg.ConcurrencyLimit = 1 + rng.Intn(100)
		}
		b := Burst{
			Demand:    d,
			Functions: c,
			Degree:    deg,
			Warm:      rng.Intn(5),
			Seed:      rng.Int63(),
		}
		if rng.Intn(4) == 0 {
			b.StaggerSec = rng.Float64() * 0.01
		}
		if cfg.ConcurrencyLimit == 0 && !cfg.faulty() {
			// A dice-free burst never reaches an engine (tandem.go): a limit
			// that cannot throttle keeps this one evented, on both.
			cfg.ConcurrencyLimit = b.Instances()
			diceFree++
		}
		wheel, heap, wheelTrace, heapTrace := runBoth(t, cfg, b)
		normalize(wheel)
		normalize(heap)
		if !reflect.DeepEqual(wheel, heap) {
			t.Fatalf("trial %d (C=%d P=%d crash=%g seed=%d): wheel result differs from heap oracle",
				trial, c, deg, cfg.CrashRate, b.Seed)
		}
		if !bytes.Equal(wheelTrace, heapTrace) {
			t.Fatalf("trial %d (C=%d P=%d): JSONL traces differ between engines", trial, c, deg)
		}
	}
}

// TestMixedBurstHeapVsWheelDifferential extends the proof to heterogeneous
// bursts, whose bin structure exercises pods, warm prefixes, and per-bin
// interference together.
func TestMixedBurstHeapVsWheelDifferential(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.0004
	cfg.StragglerProb = 0.04
	cfg.StragglerFactor = 2.5
	cfg.Hedge.Quantile = 95
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1}
	heavy := workload.Video{}.Demand()
	var bins []Bin
	for i := 0; i < 80; i++ {
		var bn Bin
		bn.Demands = append(bn.Demands, light)
		if i%2 == 0 {
			bn.Demands = append(bn.Demands, heavy)
		}
		if i%5 == 0 {
			bn.Demands = append(bn.Demands, light, light, light)
		}
		bins = append(bins, bn)
	}
	m := MixedBurst{Bins: bins, Warm: 6, Seed: 314}

	var wbuf, hbuf bytes.Buffer
	wm := m
	wm.Recorder = obs.NewJSONL(&wbuf)
	wheel, err := RunMixed(cfg, wm)
	if err != nil {
		t.Fatal(err)
	}
	hm := m
	hm.Recorder = obs.NewJSONL(&hbuf)
	var heap *Result
	withReferenceEngine(func() {
		heap, err = RunMixed(cfg, hm)
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(wheel)
	normalize(heap)
	if !reflect.DeepEqual(wheel, heap) {
		t.Fatal("mixed burst: wheel result differs from heap oracle")
	}
	if !bytes.Equal(wbuf.Bytes(), hbuf.Bytes()) {
		t.Fatal("mixed burst: JSONL traces differ between engines")
	}
}
