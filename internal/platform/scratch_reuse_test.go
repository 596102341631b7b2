package platform

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A pooled scratch carries an engine and a jitter generator from run to run,
// and both are reset by what the last run touched rather than in full (sim:
// the engine's reset truncates its heap, the generator's register is filled
// as it is read). These tests hold the pool to "a reused scratch is
// indistinguishable from a fresh one" from the worst state a previous run can
// leave, and pin the cost of the smallest burst by count.

// drainScratchPool empties runScratchPool: Get steals from every P, so the
// first call that reaches New has found nothing anywhere.
func drainScratchPool() {
	prev := runScratchPool.New
	defer func() { runScratchPool.New = prev }()
	empty := false
	runScratchPool.New = func() any { empty = true; return new(runScratch) }
	for !empty {
		runScratchPool.Get()
	}
}

// withScratch runs fn with every burst drawing sc, and only sc, from the
// pool: the pool starts empty and refills with sc itself (under the race
// detector a Put may be dropped, so New hands the same one out again). The
// bursts inside fn must run one at a time.
func withScratch(sc *runScratch, fn func()) {
	prev := runScratchPool.New
	defer func() {
		runScratchPool.New = prev
		drainScratchPool()
	}()
	runScratchPool.New = func() any { return sc }
	drainScratchPool()
	fn()
}

// registerWords reports how many words of its 607-word register g has
// materialised since it was last seeded, read from the lazy fill's countdown:
// each of the first 334 steps fills vec[feed], and the first 273 vec[tap] too.
func registerWords(g *sim.RNG) int {
	unread := int(reflect.ValueOf(g).Elem().FieldByName("src").FieldByName("unread").Int())
	steps := 334 - unread
	return steps + min(steps, 273)
}

// enginePending reads the events an engine's heap holds undispatched
// through reflection, as registerWords reads the register.
func enginePending(eng *sim.Engine) int {
	return reflect.ValueOf(eng).Elem().FieldByName("q").Len()
}

// TestOneInstanceBurstSeedsWhatItReads is the pin by count behind "a
// one-instance probe costs one instance": a dice-free one-instance burst
// draws its jitter once (a rejected ziggurat sample redraws), so it may
// materialise a handful of register words — not 607.
func TestOneInstanceBurstSeedsWhatItReads(t *testing.T) {
	cfg := AWSLambda()
	d := workload.Video{}.Demand()
	sc := new(runScratch)
	withScratch(sc, func() {
		for seed := int64(1); seed <= 64; seed++ {
			if _, err := Run(cfg, Burst{Demand: d, Functions: 4, Degree: 4, Seed: seed}); err != nil {
				t.Fatal(err)
			}
			if words := registerWords(sc.rng); words < 2 || words > 16 {
				t.Fatalf("seed %d: a one-instance burst materialised %d register words, want 2–16", seed, words)
			}
		}
		// The other end of the walk: 334 draws complete the register, and
		// the count stops there however long the burst.
		if _, err := Run(cfg, Burst{Demand: d, Functions: 1000, Degree: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if words := registerWords(sc.rng); words != 607 {
			t.Fatalf("a 1000-instance burst materialised %d register words, want all 607", words)
		}
	})
}

// panickingRecorder panics as the burst begins: in runControlPlane, before
// the solver, while a follower may still be drawing.
type panickingRecorder struct{}

func (panickingRecorder) BeginBurst(obs.BurstInfo) { panic("recorder: begin burst") }
func (panickingRecorder) Span(obs.Span)            {}
func (panickingRecorder) Event(obs.Event)          {}

// TestScratchReuseAfterPanic poisons a scratch as thoroughly as a run can —
// a faulty burst that panics mid-dispatch, events still in the heap, the
// jitter register part-filled, then every way a run with a follower can end
// short of the solver finishing (followerExits: a tie-forced fallback, zero
// servers, the closure oracle swap, a recorder panic) — then runs, on that
// same scratch, each of the eight burst-1m golden seeds at 10⁴ instances, a
// followed burst and a faulty burst, and requires every Result to match, bit
// for bit, a run on an empty pool.
func TestScratchReuseAfterPanic(t *testing.T) {
	cfg := AWSLambda()
	d := workload.Video{}.Demand()
	faulty := cfg
	faulty.CrashRate = 0.0005
	faulty.StragglerProb = 0.05
	faulty.StragglerFactor = 2
	faulty.Hedge.Quantile = 95

	bursts := make([]Burst, 0, 10)
	for seed := int64(1); seed <= 8; seed++ {
		bursts = append(bursts, Burst{Demand: d, Functions: 10_000, Degree: 1, Seed: seed})
	}
	// One burst with a follower at GOMAXPROCS 2, the setting the scratch is
	// poisoned and reused at.
	overlapped := followedBurst
	bursts = append(bursts, overlapped)
	bursts = append(bursts, Burst{Demand: d, Functions: 4000, Degree: 4, Warm: 16, Seed: 99})
	cfgOf := func(i int) Config {
		if i == len(bursts)-1 {
			return faulty
		}
		return cfg
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !overlapsDraw(cfg, overlapped.Instances()) {
		t.Fatal("the overlapped burst draws inline: the panic on the overlapped path below proves nothing")
	}

	want := make([]*Result, len(bursts))
	for i, b := range bursts {
		drainScratchPool()
		res, err := Run(cfgOf(i), b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// The poisoned scratch: Run's own steps on a hand-built batch (past its
	// validation, which is the point), one instance's execution time NaN.
	const n, bad = 2000, 1000
	sc := new(runScratch)
	sc.batch.reset(n, faulty.faulty())
	rng := sc.stream(7, 7)
	for i := 0; i < n; i++ {
		sc.batch.execs[i] = 30 * rng.Jitter(faulty.JitterRel)
		sc.batch.degree[i] = 1
	}
	sc.batch.execs[bad] = math.NaN()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the NaN execution time did not panic")
			}
		}()
		_, _ = runControlPlane(faulty, Burst{Demand: d, Functions: n, Degree: 1}, sc, rng)
	}()
	if enginePending(sc.eng) == 0 {
		t.Fatal("the panic left no event pending: the reuse below proves nothing")
	}
	for rng = sc.stream(8, 8); registerWords(rng) < 200; {
		rng.Float64() // leave the next seed a part-filled register to land on
	}
	sc.release()

	withScratch(sc, func() {
		// Each exit aborts the follower before anything joins it; the
		// scratch goes back to the pool only after the join.
		for _, exit := range followerExits {
			exit.run(t)
		}
		for i, b := range bursts {
			got, err := Run(cfgOf(i), b)
			if err != nil {
				t.Fatal(err)
			}
			sameResultBits(t, fmt.Sprintf("burst %d on the poisoned scratch", i), got, want[i])
		}
	})
}
