package platform

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/interfere"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A large dice-free burst is drawn, ended and folded by a follower goroutine
// behind the tandem solver (DESIGN §12). The follower blocks on the solver's
// feed, so every way a run can end without the solver finishing must close
// that feed with an abort before anything joins the follower, or the run
// hangs. These tests drive each such exit and then require the scratch it
// leaves behind to run the next burst bit for bit as a fresh one does; CI
// runs them at -count 20 under a -timeout, so a lost abort fails as a
// timeout.

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
		n := b.Instances()
		sc := newRunScratch(n, false)
		defer sc.release()
		rng := sc.stream(b.Seed, hashName(cfg.Name))
		base := interfere.ExecSeconds(b.Demand, cfg.Shape, b.Degree)
		sc.draw = jitterDraw{full: base, last: base, rel: cfg.JitterRel}
		sc.fold.reset(&cfg, &b.Demand)
		sc.fold.meter = mustMeter(storage.NewMeter(cfg.Storage, cfg.StorageGBps))
		sc.follow()
		for i := range sc.batch.degree {
			sc.batch.degree[i] = int32(b.Degree)
		}
		mustPanic(t, "sim: station needs ≥1 server", func() { _, _ = runControlPlane(cfg, b, sc, rng) })
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
