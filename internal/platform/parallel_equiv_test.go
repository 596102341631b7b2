package platform

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// mixedEquivBins builds a heterogeneous bin set mixing two demands at
// varying degrees, enough instances that the fan-out actually interleaves.
func mixedEquivBins() []Bin {
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1}
	heavy := workload.Video{}.Demand()
	var bins []Bin
	for i := 0; i < 60; i++ {
		var b Bin
		b.Demands = append(b.Demands, light)
		if i%2 == 0 {
			b.Demands = append(b.Demands, heavy)
		}
		if i%3 == 0 {
			b.Demands = append(b.Demands, light, light)
		}
		bins = append(bins, b)
	}
	return bins
}

// namedBurst is a burst for asAloneConcurrently, handed a recorder it may
// ignore.
type namedBurst struct {
	name string
	run  func(obs.Recorder) (*Result, error)
}

// asAloneConcurrently runs each burst alone at GOMAXPROCS 1, then three
// copies of every burst at once, each on its own goroutine, at GOMAXPROCS 2,
// and requires each copy to be its lone run: the same Result bits and JSONL
// trace bytes, or the same error. It returns how many of the concurrent
// bursts a follower folded.
func asAloneConcurrently(t *testing.T, bursts ...namedBurst) int64 {
	t.Helper()
	type run struct {
		res   *Result
		trace bytes.Buffer
		err   error
	}
	do := func(r *run, b namedBurst) { r.res, r.err = b.run(obs.NewJSONL(&r.trace)) }
	alone := make([]run, len(bursts))
	withProcs(1, func() {
		for i := range alone {
			do(&alone[i], bursts[i])
		}
	})
	together := make([]run, 3*len(bursts))
	var folded int64
	withProcs(2, func() {
		folded = countFolded(func() {
			var wg sync.WaitGroup
			for k := range together {
				wg.Add(1)
				go func() {
					defer wg.Done()
					do(&together[k], bursts[k%len(bursts)])
				}()
			}
			wg.Wait()
		})
	})
	for k := range together {
		a, c, what := &alone[k%len(bursts)], &together[k], fmt.Sprintf("%s, copy %d", bursts[k%len(bursts)].name, k/len(bursts))
		if fmt.Sprint(c.err) != fmt.Sprint(a.err) {
			t.Fatalf("%s: err %v concurrently at GOMAXPROCS 2, %v alone at 1", what, c.err, a.err)
		}
		if a.err == nil {
			sameRun(t, what+": concurrently at GOMAXPROCS 2 vs alone at 1", c.res, c.trace.Bytes(), a.res, a.trace.Bytes())
		}
	}
	return folded
}

// faultyMixed is a recorded mixed burst under crashes, stragglers and hedging.
func faultyMixed(rec obs.Recorder) (*Result, error) {
	cfg := crashyConfig(0.0005)
	cfg.StragglerProb, cfg.StragglerFactor, cfg.Hedge.Quantile = 0.05, 3, 95
	return RunMixed(cfg, MixedBurst{Bins: mixedEquivBins(), Seed: 77, Warm: 7, Recorder: rec, Label: "equiv"})
}

// TestConcurrentMixedBurstEquivalence is the platform-layer half of the
// determinism contract: RunMixed must produce byte-identical results —
// timelines, billing, fault counters, and recorded spans/events — under
// fault injection and hedging whether its per-bin preparation runs inline
// (GOMAXPROCS 1) or fans out (GOMAXPROCS 2) beside copies of itself.
func TestConcurrentMixedBurstEquivalence(t *testing.T) {
	asAloneConcurrently(t, namedBurst{"mixed", faultyMixed})
}

// TestConcurrentMixedBurstLimitError checks the error path is order-stable:
// the reported infeasible bin is the first one in bin order, whether the
// preparation fans out or not.
func TestConcurrentMixedBurstLimitError(t *testing.T) {
	cfg := AWSLambda()
	heavy := workload.Video{}.Demand()
	// A limit between the singleton and the packed execution time makes
	// exactly the overloaded bins infeasible.
	single := interfere.ExecSecondsMixed([]interfere.Demand{heavy}, cfg.Shape)
	cfg.MaxExecSec = single * 1.05
	bins := singletonBins(heavy, 6)
	// Bins 2 and 4 are overloaded past the execution limit.
	for _, i := range []int{2, 4} {
		bins[i].Demands = append(bins[i].Demands, heavy, heavy)
	}
	run := func(obs.Recorder) (*Result, error) { return RunMixed(cfg, MixedBurst{Bins: bins, Seed: 5}) }
	if _, err := run(nil); !errors.Is(err, ErrExecLimit) {
		t.Fatalf("err = %v, want the execution-limit error", err)
	}
	asAloneConcurrently(t, namedBurst{"limit", run})
}

// TestConcurrentBurstsMatchSequential puts the pooled scratch — engine,
// dispatcher, stations, follower — and RunMixed's fan-out under the race
// detector: a faulty burst, a burst large enough for a follower and a mixed
// burst, three copies each, all at once, each equal to the same burst run
// alone. The Concurrent name opts it into CI's -race -count=2 stress job.
func TestConcurrentBurstsMatchSequential(t *testing.T) {
	faulty := AWSLambda()
	faulty.CrashRate, faulty.StragglerProb, faulty.StragglerFactor, faulty.Hedge.Quantile = 0.0005, 0.05, 2, 95
	folded := asAloneConcurrently(t,
		namedBurst{"faulty", func(rec obs.Recorder) (*Result, error) {
			return Run(faulty, Burst{Demand: workload.Video{}.Demand(), Functions: 4000, Degree: 4, Warm: 16, Seed: 99, Recorder: rec})
		}},
		namedBurst{"followed", func(obs.Recorder) (*Result, error) { return Run(AWSLambda(), followedBurst) }},
		namedBurst{"mixed", faultyMixed})
	if folded != 3 {
		t.Fatalf("the follower folded %d bursts, want the 3 followed copies", folded)
	}
}

// TestShardedBurstIsItsCells holds RunSharded to what it promises: one cell
// is Run, bit for bit and trace byte for trace byte; eight cells are the
// eight cells' own Runs, columns concatenated in cell order, bills summed and
// busy time averaged; and a burst that cannot be split — staggered, or
// recorded — is refused rather than split.
func TestShardedBurstIsItsCells(t *testing.T) {
	cfg := crashyConfig(0.0008)
	cfg.StartFailureProb = 0.04
	cfg.StragglerProb = 0.05
	cfg.StragglerFactor = 2.5
	cfg.Hedge.Quantile = 95
	base := Burst{Demand: workload.Video{}.Demand(), Functions: 600, Degree: 7, Warm: 5, Seed: 90210, Label: "shard-equiv"}

	// Shards=1 — and any count on a one-instance burst — is the
	// single-cell simulation, staggered and recorded included.
	staggered := base
	staggered.StaggerSec = 0.002
	for _, tc := range []struct {
		b      Burst
		shards int
	}{{staggered, 1}, {Burst{Demand: base.Demand, Functions: 3, Degree: 4, Seed: 7}, 8}} {
		var runTrace, shardTrace bytes.Buffer
		rb, sb := tc.b, tc.b
		rb.Recorder, sb.Recorder = obs.NewJSONL(&runTrace), obs.NewJSONL(&shardTrace)
		want, err := Run(cfg, rb)
		got, shardErr := RunSharded(cfg, sb, Sharding{Shards: tc.shards})
		if err != nil || shardErr != nil {
			t.Fatalf("Shards=%d: Run err %v, RunSharded err %v", tc.shards, err, shardErr)
		}
		sameRun(t, fmt.Sprintf("Shards=%d vs Run", tc.shards), got, shardTrace.Bytes(), want, runTrace.Bytes())
	}

	const shards = 8
	res, err := RunSharded(cfg, base, Sharding{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	n := base.Instances()
	rows := res.Timelines()
	var busy [3]float64
	for s := 0; s < shards; s++ {
		lo, hi := shardBounds(n, shards, s)
		cell, err := Run(cfg, Burst{Demand: base.Demand, Functions: min(hi*base.Degree, base.Functions) - lo*base.Degree,
			Degree: base.Degree, Warm: min(max(base.Warm-lo, 0), hi-lo), Seed: parallel.TaskSeed(base.Seed, s), Label: base.Label})
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range cell.Timelines() {
			tl.Index = lo + i
			if !reflect.DeepEqual(rows[lo+i], tl) { // times here are never NaN
				t.Fatalf("row %d is not cell %d's row %d:\n%+v\n%+v", lo+i, s, i, rows[lo+i], tl)
			}
		}
		busy[0], busy[1], busy[2] = busy[0]+cell.SchedBusySec, busy[1]+cell.BuildBusySec, busy[2]+cell.ShipBusySec
	}
	if len(rows) != n || res.Crashes+res.Timeouts+res.StartRetries == 0 {
		t.Fatalf("%d rows of %d, %d faults: want every row and some faults", len(rows), n, res.Crashes+res.Timeouts+res.StartRetries)
	}
	inv := 1 / float64(shards)
	if got, want := []float64{res.SchedBusySec, res.BuildBusySec, res.ShipBusySec}, []float64{busy[0] * inv, busy[1] * inv, busy[2] * inv}; !reflect.DeepEqual(got, want) {
		t.Errorf("busy seconds %v, the cells' mean %v", got, want)
	}
	// The bill and the fault roll-up against the rows, cell by cell.
	checkColumnsAgainstRows(t, "RunSharded×8", res, shards, func(i int) []demandGroup {
		resident := base.Degree
		if i == n-1 {
			resident = base.Functions - i*base.Degree
		}
		return []demandGroup{{d: base.Demand, n: resident}}
	})

	recorded := base
	recorded.Recorder = &obs.Memory{}
	for what, tc := range map[string]struct {
		b    Burst
		want error
	}{"staggered": {staggered, errShardedStagger}, "recorded": {recorded, errShardedRecorder}} {
		if _, err := RunSharded(cfg, tc.b, Sharding{Shards: 2}); !errors.Is(err, tc.want) {
			t.Errorf("a %s two-cell burst: err = %v, want %v", what, err, tc.want)
		}
	}
}

// TestRunScratchReuseStable guards the sync.Pool scratch: repeated and
// interleaved bursts of different shapes must be bit-identical to their own
// first run — stale pod state, retry backoff, or execution durations from a
// pooled array would show up here.
func TestRunScratchReuseStable(t *testing.T) {
	cfg := crashyConfig(0.001)
	cfg.StartFailureProb = 0.05
	d := workload.Video{}.Demand()
	bursts := []Burst{
		{Demand: d, Functions: 500, Degree: 8, Seed: 11},
		{Demand: d, Functions: 37, Degree: 5, Seed: 12, Warm: 3},
		{Demand: d, Functions: 120, Degree: 1, Seed: 13},
	}
	firsts := make([]*Result, len(bursts))
	for i, b := range bursts {
		res, err := Run(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		firsts[i] = res
	}
	for round := 0; round < 3; round++ {
		for i, b := range bursts {
			res, err := Run(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, firsts[i]) {
				t.Fatalf("round %d burst %d: pooled-scratch run differs from first run", round, i)
			}
		}
	}
}
