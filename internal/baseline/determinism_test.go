package baseline

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestSweepDeterminismProperty is the sweep-level equivalence test: for
// randomized configurations — including fault injection, so the
// trace.Metrics fault counters (Retries, Crashes, Timeouts, FailedSec,
// WastedUSD) are covered, not just the happy-path fields — the parallel
// sweep must return exactly the metrics of the sequential sweep for every
// worker count, and the recorder must see byte-identical JSONL output.
func TestSweepDeterminismProperty(t *testing.T) {
	apps := workload.Motivation()
	meta := rand.New(rand.NewSource(80086))
	for trial := 0; trial < 8; trial++ {
		cfg := platform.AWSLambda()
		w := apps[meta.Intn(len(apps))]
		c := 100 + meta.Intn(400)
		seed := meta.Int63()
		if trial%2 == 1 {
			// Odd trials inject faults so the fault counters and event
			// records participate in the equivalence check.
			cfg.CrashRate = 0.0005 * meta.Float64()
			cfg.StartFailureProb = 0.05 * meta.Float64()
			cfg.StragglerProb = 0.05 * meta.Float64()
			cfg.StragglerFactor = 2 + 2*meta.Float64()
		}
		maxDeg := cfg.Shape.MaxDegree(w.Demand())
		if maxDeg > 8 {
			maxDeg = 8 // keep the trial fast; truncation is exercised anyway
		}

		var oracleBuf bytes.Buffer
		oracle, err := SweepWithOptions(cfg, w.Demand(), c, seed, maxDeg,
			SweepOptions{Workers: 1, Recorder: obs.NewJSONL(&oracleBuf)})
		if err != nil {
			t.Fatalf("trial %d: sequential sweep: %v", trial, err)
		}
		if len(oracle) == 0 {
			t.Fatalf("trial %d: sequential sweep returned no degrees", trial)
		}

		for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
			var buf bytes.Buffer
			got, err := SweepWithOptions(cfg, w.Demand(), c, seed, maxDeg,
				SweepOptions{Workers: workers, Recorder: obs.NewJSONL(&buf)})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("trial %d workers=%d: metrics differ from sequential sweep\n got  %+v\n want %+v",
					trial, workers, got, oracle)
			}
			if !bytes.Equal(buf.Bytes(), oracleBuf.Bytes()) {
				t.Fatalf("trial %d workers=%d: recorder bytes differ from sequential sweep (%d vs %d bytes)",
					trial, workers, buf.Len(), oracleBuf.Len())
			}
		}
	}
}

// TestSweepDefaultWorkersMatchesSequential pins the exported entry points:
// Sweep (GOMAXPROCS workers) must agree with the Workers=1 oracle.
func TestSweepDefaultWorkersMatchesSequential(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Sort{}.Demand()
	maxDeg := cfg.Shape.MaxDegree(d)
	def, err := Sweep(cfg, d, 300, 5, maxDeg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SweepWithOptions(cfg, d, 300, 5, maxDeg, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, seq) {
		t.Fatalf("default-worker Sweep differs from sequential:\n got  %+v\n want %+v", def, seq)
	}
}
