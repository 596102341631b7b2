package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// workerCounts is the equivalence grid the issue prescribes: the sequential
// oracle, an even and an odd worker count, and whatever this machine's
// GOMAXPROCS happens to be.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestMapDeterminismProperty is the headline property test: randomized
// task loads whose tasks derive all randomness from (seed, taskIndex) must
// produce byte-identical output for every worker count. 50 random trials
// per run; each trial varies the task count and the per-task work shape.
func TestMapDeterminismProperty(t *testing.T) {
	meta := rand.New(rand.NewSource(20240806)) // drives the trial shapes, not the tasks
	for trial := 0; trial < 50; trial++ {
		n := 1 + meta.Intn(200)
		seed := int64(meta.Int63())
		task := func(_ context.Context, i int) (string, error) {
			// Each task owns an RNG stream split from (seed, i) — the
			// stream sim.NewRNG(TaskSeed(seed, i)) draws — and does a
			// scheduling-sensitive amount of work: if any cross-task state
			// leaked, worker counts would interleave differently and the
			// digest would drift.
			rng := rand.New(rand.NewSource(TaskSeed(seed, i)))
			rounds := 1 + rng.Intn(64)
			var acc uint64
			for r := 0; r < rounds; r++ {
				acc = acc*1099511628211 + uint64(rng.Int63())
			}
			return fmt.Sprintf("%d:%x:%.17g", i, acc, rng.Float64()), nil
		}

		oracle, err := Map(context.Background(), n, task, Workers(1))
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for _, workers := range workerCounts()[1:] {
			got, err := Map(context.Background(), n, task, Workers(workers))
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("trial %d workers=%d: len %d != oracle %d", trial, workers, len(got), len(oracle))
			}
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Fatalf("trial %d workers=%d task %d:\n got  %q\n want %q",
						trial, workers, i, got[i], oracle[i])
				}
			}
		}
	}
}

// TestMapDeterministicUnderRepetition re-runs the same fan-out many times at
// the same worker count: scheduling jitter between runs must not change the
// result either.
func TestMapDeterministicUnderRepetition(t *testing.T) {
	task := func(_ context.Context, i int) (uint64, error) {
		return uint64(rand.New(rand.NewSource(TaskSeed(7, i))).Int63()), nil
	}
	want, err := Map(context.Background(), 128, task, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		got, err := Map(context.Background(), 128, task, Workers(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d task %d: %d != %d", rep, i, got[i], want[i])
			}
		}
	}
}
