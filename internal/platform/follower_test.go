package platform

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/interfere"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A large dice-free burst is ended and folded by a follower goroutine behind
// the tandem solver, and drawn by it too unless the burst's schedule is
// stored: then the solver goroutine has nothing to solve and draws (DESIGN
// §12). The follower blocks on the solver's feed, so every way a run can end
// without the solver finishing must close that feed with an abort before
// anything joins the follower, or the run hangs. These tests drive each such
// exit and then require the scratch it leaves behind to run the next burst
// bit for bit as a fresh one does; CI runs them at -count 20 under a
// -timeout, so a lost abort fails as a timeout.

// countFolded runs fn with the production control plane and reports how many
// of the bursts fn simulated the follower ended and folded.
func countFolded(fn func()) int64 {
	var folded atomic.Int64
	runCP = func(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
		res, err := runControlPlane(cfg, b, sc, rng)
		if sc.folded {
			folded.Add(1)
		}
		return res, err
	}
	defer func() { runCP = runControlPlane }()
	fn()
	return folded.Load()
}

// tiedAboveThreshold is a platform whose scheduler and builders tie at an
// instant only the engine's sequence numbers order: the solver declines every
// burst on it partway through.
func tiedAboveThreshold() Config {
	cfg := AWSLambda()
	cfg.SchedBaseSec, cfg.SchedPerBusySec = 1, 0
	cfg.BuildSec, cfg.BuildGrowthSec, cfg.BuildServers = 1, 0, 2
	return cfg
}

// followedBurst is large enough for Run to start a follower at GOMAXPROCS 2.
var followedBurst = Burst{Demand: workload.Video{}.Demand(), Functions: overlapDrawMin + 1, Degree: 1, Warm: 3, Seed: 21}

// followedByHand is Run's own steps up to its control plane, past its
// validation, for b on cfg at GOMAXPROCS 2: a scratch from the pool, the
// stream, the draw with full as the full instances' duration, the stored or
// metered bill, the follower started and the degree column filled. On a
// stored schedule the caller draws.
func followedByHand(cfg Config, b Burst, full float64) (*runScratch, *sim.RNG) {
	n := b.Instances()
	sc := newRunScratch(&cfg, n, b.Warm, b.StaggerSec)
	rng := sc.stream(b.Seed, hashName(cfg.Name))
	sc.draw = jitterDraw{full: full, last: interfere.ExecSeconds(b.Demand, cfg.Shape, b.Degree), rel: cfg.JitterRel}
	sc.fold.reset(&cfg, &b.Demand)
	sc.fold.billStored(&cfg, billKeyOf(&cfg, &b.Demand, b.Degree, b.Degree, n))
	sc.follow()
	for i := range sc.batch.degree {
		sc.batch.degree[i] = int32(b.Degree)
	}
	return sc, rng
}

// storedFollowedByHand is followedByHand on a schedule the store holds.
func storedFollowedByHand(t *testing.T, full float64) (*runScratch, *sim.RNG) {
	t.Helper()
	if _, err := Run(AWSLambda(), followedBurst); err != nil { // stores the schedule
		t.Fatal(err)
	}
	sc, rng := followedByHand(AWSLambda(), followedBurst, full)
	if !sc.plan.hit {
		sc.release()
		t.Fatal("the followed burst missed the schedule store: the draw below is not the solver's")
	}
	return sc, rng
}

// mustPanic runs fn and fails unless it panics with want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := recover(); fmt.Sprint(got) != want {
			t.Fatalf("recovered %v, want a panic with %q", got, want)
		}
	}()
	fn()
}

// followerExits are the ways a run with a follower ends without the solver
// finishing the burst. Each draws its scratch from the pool and must be run
// at GOMAXPROCS 2.
var followerExits = []struct {
	name string
	run  func(t *testing.T)
}{
	{"tie-forced fallback", func(t *testing.T) {
		before := tandemFallbacks.Load()
		folded := countFolded(func() {
			if _, err := Run(tiedAboveThreshold(), followedBurst); err != nil {
				t.Fatal(err)
			}
		})
		if tandemFallbacks.Load() == before || folded != 0 {
			t.Fatalf("the tied burst fell back %d times and the follower folded %d: want 1 and 0",
				tandemFallbacks.Load()-before, folded)
		}
	}},
	{"zero servers", func(t *testing.T) {
		// Config.Validate refuses zero servers, so this is Run's own steps
		// past it: the solver returns before its first row, and the evented
		// path's station panics after the abort.
		cfg, b := AWSLambda(), followedBurst
		cfg.SchedServers = 0
		sc, rng := followedByHand(cfg, b, interfere.ExecSeconds(b.Demand, cfg.Shape, b.Degree))
		defer sc.release()
		mustPanic(t, "sim: station needs ≥1 server", func() { _, _ = runControlPlane(cfg, b, sc, rng) })
	}},
	{"stored: abort while the solver draws", func(t *testing.T) {
		// The solver goroutine feeds the first chunk and stops: the join is
		// an abort, and the follower's fold of one chunk is dropped.
		b := followedBurst
		sc, _ := storedFollowedByHand(t, interfere.ExecSeconds(b.Demand, AWSLambda().Shape, b.Degree))
		defer sc.release()
		sc.drawExecs(nil)
		sc.feed <- followChunk
		sc.join()
		if sc.folded {
			t.Fatal("a follower fed one chunk of the burst reports it folded")
		}
	}},
	{"stored: end-pass panic while the solver draws", func(t *testing.T) {
		// A NaN duration panics in the follower's end pass while the solver
		// goroutine is still drawing and feeding; the follower recovers and
		// stops, and the inline end pass after the join re-raises it.
		sc, rng := storedFollowedByHand(t, math.NaN())
		defer sc.release()
		sc.drawExecs(sc.feed)
		mustPanic(t, "sim: non-finite delay NaN", func() { _, _ = runControlPlane(AWSLambda(), followedBurst, sc, rng) })
	}},
	{"closure oracle swap", func(t *testing.T) {
		// The oracle reads execs at once: it must join the draw first.
		want, err := Run(AWSLambda(), followedBurst)
		if err != nil {
			t.Fatal(err)
		}
		var got *Result
		withClosureControlPlane(func() { got, err = Run(AWSLambda(), followedBurst) })
		if err != nil {
			t.Fatal(err)
		}
		sameResultBits(t, "the closure oracle vs the typed path", got, want)
	}},
	{"recorder panic", func(t *testing.T) {
		b := followedBurst
		b.Seed, b.Recorder = 22, panickingRecorder{}
		mustPanic(t, "recorder: begin burst", func() { _, _ = Run(AWSLambda(), b) })
	}},
}

// TestFollowerExitPaths drives each exit in followerExits on a scratch of its
// own, then runs a followed burst on that scratch and requires it to match,
// bit for bit, the same burst on an empty pool.
func TestFollowerExitPaths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !overlapsDraw(AWSLambda(), followedBurst.Instances()) {
		t.Fatal("the followed burst runs inline: the exits below prove nothing")
	}
	later := followedBurst
	later.Seed = 23
	drainScratchPool()
	want, err := Run(AWSLambda(), later)
	if err != nil {
		t.Fatal(err)
	}
	for _, exit := range followerExits {
		t.Run(exit.name, func(t *testing.T) {
			withScratch(new(runScratch), func() {
				exit.run(t)
				got, err := Run(AWSLambda(), later)
				if err != nil {
					t.Fatal(err)
				}
				sameResultBits(t, exit.name+": the next burst on the same scratch", got, want)
			})
		})
	}
}
