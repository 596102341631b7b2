package platform

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The row-wise metric folds the columnar Result replaced, retained VERBATIM
// as frozen oracles — the same pattern as the closure control plane in
// burst_closure_test.go. Each is the pre-change method body with the
// receiver's `r.Timelines` turned into a `ts []Timeline` parameter (and, for
// bill and the roll-up, the accumulators into return values) and nothing
// else touched. TestResultColumnsDifferential holds every column fold to
// their exact bits over res.Timelines().
//
// Do not "improve" these functions; they are a specification.

func rowScalingTime(ts []Timeline) float64 {
	var maxStart float64
	for _, t := range ts {
		if t.Start > maxStart {
			maxStart = t.Start
		}
	}
	return maxStart
}

func rowFirstStart(ts []Timeline) float64 {
	first := math.Inf(1)
	for _, t := range ts {
		if t.Start < first {
			first = t.Start
		}
	}
	return first
}

func rowTotalServiceTime(ts []Timeline) float64 {
	var maxEnd float64
	for _, t := range ts {
		if t.End > maxEnd {
			maxEnd = t.End
		}
	}
	return maxEnd - rowFirstStart(ts)
}

func rowServiceTimeAtQuantiles(ts []Timeline, qs ...float64) []float64 {
	ends := make([]float64, len(ts))
	for i, t := range ts {
		ends[i] = t.End
	}
	sort.Float64s(ends)
	first := rowFirstStart(ts)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.QuantileSorted(ends, q) - first
	}
	return out
}

func rowFunctionSeconds(ts []Timeline) float64 {
	var s float64
	for _, t := range ts {
		s += t.ExecSeconds()
	}
	return s
}

func rowStageBreakdown(ts []Timeline) (sched, build, ship, boot float64) {
	var last Timeline
	for _, t := range ts {
		if t.Start >= last.Start {
			last = t
		}
	}
	return last.SchedDone,
		last.BuildDone - last.SchedDone,
		last.ShipDone - last.BuildDone,
		last.Start - last.ShipDone
}

// rowFailedSeconds is the loop trace.FromResult ran over r.Timelines.
func rowFailedSeconds(ts []Timeline) float64 {
	var failedSec float64
	for _, tl := range ts {
		failedSec += tl.FailedSec
	}
	return failedSec
}

// wastedSec is the billed time that produced no results: failed attempts
// plus the losing copy of a hedged execution.
func (t Timeline) wastedSec() float64 {
	w := t.FailedSec
	if t.Hedged {
		if t.HedgeWon {
			w += t.ExecSeconds() // the primary ran until the duplicate won
		} else {
			w += t.HedgeExtraSec // the duplicate ran until the primary won
		}
	}
	return w
}

type rowBillUSD struct{ compute, request, storage, wasted float64 }

func rowBill(cfg Config, ts []Timeline, groupsOf func(i int) []demandGroup) rowBillUSD {
	var r rowBillUSD
	meter, err := storage.NewMeter(cfg.Storage, cfg.StorageGBps)
	if err != nil {
		panic(err) // Config.Validate guarantees positive bandwidth
	}
	memGB := cfg.MemoryGB()
	for _, t := range ts {
		r.compute += (t.ExecSeconds() + t.FailedSec + t.HedgeExtraSec) * memGB * cfg.GBSecondUSD
		r.wasted += t.wastedSec() * memGB * cfg.GBSecondUSD
		launches := 1 + t.Retries + t.Crashes + t.Timeouts
		if t.Hedged {
			launches++
		}
		r.request += cfg.PerRequestUSD * float64(launches)
		for _, g := range groupsOf(t.Index) {
			billGroup(meter, g.d, g.n)
		}
	}
	r.storage = meter.CostUSD()
	return r
}

type rowFaults struct{ startRetries, crashes, timeouts, hedgesLaunched, hedgesWon int }

func rowRollUp(ts []Timeline) rowFaults {
	var res rowFaults
	for _, t := range ts {
		res.startRetries += t.Retries
		res.crashes += t.Crashes
		res.timeouts += t.Timeouts
		if t.Hedged {
			res.hedgesLaunched++
		}
		if t.HedgeWon {
			res.hedgesWon++
		}
	}
	return res
}

// checkColumnsAgainstRows asserts that every metric and every USD field of
// res carries the bits the row-wise references compute from res.Timelines().
// groupsOf gives global instance i's billing groups; shards is the cell
// count the result was simulated with (1 for Run/RunMixed), because a
// sharded bill is the shard-order sum of per-cell bills and float addition
// does not reassociate.
func checkColumnsAgainstRows(t *testing.T, what string, res *Result, shards int, groupsOf func(i int) []demandGroup) {
	t.Helper()
	ts := res.Timelines()
	if len(ts) != res.Instances() {
		t.Fatalf("%s: Timelines() has %d rows, Instances() = %d", what, len(ts), res.Instances())
	}
	for i, tl := range ts {
		if tl.Index != i {
			t.Fatalf("%s: Timelines()[%d].Index = %d", what, i, tl.Index)
		}
		if res.Start(i) != tl.Start || res.End(i) != tl.End {
			t.Fatalf("%s: Start/End(%d) = %g/%g, row has %g/%g", what, i, res.Start(i), res.End(i), tl.Start, tl.End)
		}
	}
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v (%#x), row-wise reference %v (%#x)",
				what, name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	same("ScalingTime", res.ScalingTime(), rowScalingTime(ts))
	same("firstStart", res.firstStart(), rowFirstStart(ts))
	same("TotalServiceTime", res.TotalServiceTime(), rowTotalServiceTime(ts))
	qs := []float64{95, 50, 0, 100, 99.9}
	got, want := res.ServiceTimeAtQuantiles(qs...), rowServiceTimeAtQuantiles(ts, qs...)
	for i, q := range qs {
		same(fmt.Sprintf("ServiceTimeAtQuantiles(%g)", q), got[i], want[i])
	}
	same("ServiceTimeAtQuantile(95)", res.ServiceTimeAtQuantile(95), want[0])
	same("FunctionSeconds", res.FunctionSeconds(), rowFunctionSeconds(ts))
	same("MeanExecSeconds", res.MeanExecSeconds(), rowFunctionSeconds(ts)/float64(len(ts)))
	same("FailedSeconds", res.FailedSeconds(), rowFailedSeconds(ts))
	s1, b1, h1, o1 := res.StageBreakdown()
	s2, b2, h2, o2 := rowStageBreakdown(ts)
	same("StageBreakdown.sched", s1, s2)
	same("StageBreakdown.build", b1, b2)
	same("StageBreakdown.ship", h1, h2)
	same("StageBreakdown.boot", o1, o2)

	var bill rowBillUSD
	for s := 0; s < shards; s++ {
		lo, hi := shardBounds(len(ts), shards, s)
		cell := rowBill(res.Config, ts[lo:hi], groupsOf)
		bill.compute += cell.compute
		bill.request += cell.request
		bill.storage += cell.storage
		bill.wasted += cell.wasted
	}
	same("ComputeUSD", res.ComputeUSD, bill.compute)
	same("RequestUSD", res.RequestUSD, bill.request)
	same("StorageUSD", res.StorageUSD, bill.storage)
	same("WastedUSD", res.WastedUSD, bill.wasted)
	same("ExpenseUSD", res.ExpenseUSD(), bill.compute+bill.request+bill.storage)

	if got, want := (rowFaults{res.StartRetries, res.Crashes, res.Timeouts, res.HedgesLaunched, res.HedgesWon}), rowRollUp(ts); got != want {
		t.Errorf("%s: fault roll-up %+v, row-wise reference %+v", what, got, want)
	}
}

// TestResultColumnsDifferential is the columnar Result's proof of
// equivalence: across randomized bursts — warm prefixes, staggered arrival,
// account throttling, start failures, crashes, timeouts, stragglers,
// hedging; homogeneous and mixed — every figure of merit and every USD field
// folded over the columns is Float64bits-equal to the retained row-wise fold
// over Timelines(). (TestShardedBurstIsItsCells and
// TestOverlapDrawDifferential carry it to merged multi-cell results.)
func TestResultColumnsDifferential(t *testing.T) {
	video := workload.Video{}.Demand()
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1, SharedInput: true}
	shuffly := interfere.Demand{CPUSeconds: 12, IOSeconds: 4, MemoryMB: 256, InputMB: 20, OutputMB: 8, ShuffleFraction: 0.5}
	rng := rand.New(rand.NewSource(161803))

	var seen rowFaults
	var seenStraggled, seenWarm, seenThrottled, seenStagger, verified int
	const trials = 48
	for trial := 0; trial < trials; trial++ {
		cfg := AWSLambda()
		// A deep retry budget keeps faulty bursts completing; the rare burst
		// that still exhausts it is skipped (and counted) below.
		cfg.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 0.5, CapSec: 20, MaxAttempts: 60}
		if rng.Intn(2) == 0 {
			cfg.CrashRate = rng.Float64() * 0.002
			cfg.StartFailureProb = rng.Float64() * 0.1
		}
		if rng.Intn(2) == 0 {
			cfg.StragglerProb = 0.05 + rng.Float64()*0.2
			cfg.StragglerFactor = 2 + rng.Float64()
		}
		if rng.Intn(2) == 0 {
			cfg.Hedge.Quantile = 80 + 15*rng.Float64()
		}
		throttled := rng.Intn(4) == 0
		if throttled {
			cfg.ConcurrencyLimit = 1 + rng.Intn(100)
		}
		warm := rng.Intn(6)
		var stagger float64
		if rng.Intn(4) == 0 {
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
			c, deg := 1+rng.Intn(800), 1+rng.Intn(16)
			d := video
			if trial%2 == 0 {
				d = shuffly
			}
			if cfg.StragglerProb > 0 && rng.Intn(2) == 0 {
				// Healthy attempts fit; straggled ones (≥ 2×) are killed.
				cfg.ExecTimeoutSec = 1.5 * interfere.ExecSeconds(d, cfg.Shape, deg)
			}
			b := Burst{Demand: d, Functions: c, Degree: deg, Warm: warm, StaggerSec: stagger, Seed: seed}
			what = fmt.Sprintf("trial %d Run(C=%d P=%d seed=%d)", trial, c, deg, seed)
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
				if rng.Intn(3) == 0 {
					bins[i].Demands = append(bins[i].Demands, shuffly, shuffly)
				}
			}
			what = fmt.Sprintf("trial %d RunMixed(bins=%d seed=%d)", trial, len(bins), seed)
			res, err = RunMixed(cfg, MixedBurst{Bins: bins, Warm: warm, StaggerSec: stagger, Seed: seed})
			groupsOf = func(i int) []demandGroup { return groupDemands(bins[i].Demands) }
		}
		if err != nil {
			t.Logf("%s: skipped: %v", what, err)
			continue
		}
		checkColumnsAgainstRows(t, what, res, 1, groupsOf)
		seen.startRetries += res.StartRetries
		seen.crashes += res.Crashes
		seen.timeouts += res.Timeouts
		seen.hedgesLaunched += res.HedgesLaunched
		seen.hedgesWon += res.HedgesWon
		for _, tl := range res.Timelines() {
			seenStraggled += tl.Straggled
		}
		verified++
		if warm > 0 {
			seenWarm++
		}
		if throttled {
			seenThrottled++
		}
		if stagger > 0 {
			seenStagger++
		}
	}

	// The sweep must not pass vacuously: enough bursts survived, and every
	// behaviour the folds have a branch or a column for actually occurred.
	if verified < 40 {
		t.Errorf("only %d of %d trials completed, want ≥ 40", verified, trials)
	}
	for name, n := range map[string]int{
		"start retries": seen.startRetries, "crashes": seen.crashes, "timeouts": seen.timeouts,
		"hedges launched": seen.hedgesLaunched, "hedges won": seen.hedgesWon,
		"hedges lost": seen.hedgesLaunched - seen.hedgesWon, "straggled attempts": seenStraggled,
		"warm trials": seenWarm, "throttled trials": seenThrottled, "staggered trials": seenStagger,
	} {
		if n == 0 {
			t.Errorf("sweep never exercised %s", name)
		}
	}
}

// withProcs runs fn at GOMAXPROCS procs, restoring the setting after.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestOverlapDrawDifferential holds the pipelined burst to the inline one
// (DESIGN §12): dice-free bursts one below, at and one above overlapDrawMin
// instances — unpacked and packed with a short last instance, with warm
// prefixes, pods and stagger — each under GOMAXPROCS 1 (drawn, ended and
// folded inline) and 2 (drawn, ended and folded by the follower behind the
// solver, which it must be above the threshold). Every metric and USD field
// is Float64bits-equal to the row-wise references, and the two runs are the
// same Result bit for bit. Above the threshold it adds a burst whose solver
// declines a tie, so the evented path reads execs after the abort, and a
// four-cell RunSharded whose cells are all pipelined, merged and re-folded,
// against the same run inline.
func TestOverlapDrawDifferential(t *testing.T) {
	d := workload.Video{}.Demand()
	podded := AWSLambda()
	podded.PodSize = 4
	type burstCase struct {
		what string
		cfg  Config
		b    Burst
	}
	var cases []burstCase
	for _, n := range []int{overlapDrawMin - 1, overlapDrawMin, overlapDrawMin + 1} {
		cases = append(cases,
			burstCase{fmt.Sprintf("unpacked n=%d", n), AWSLambda(), Burst{Demand: d, Functions: n, Degree: 1, Seed: int64(n)}},
			burstCase{fmt.Sprintf("packed, short last, warm, pods, stagger n=%d", n), podded,
				Burst{Demand: d, Functions: 3*n - 1, Degree: 3, Warm: 37, StaggerSec: 1e-5, Seed: int64(n)}})
	}
	for _, tc := range cases {
		n := tc.b.Instances()
		groupsOf := func(i int) []demandGroup {
			resident := tc.b.Degree
			if i == n-1 {
				resident = tc.b.Functions - i*tc.b.Degree
			}
			return []demandGroup{{d: tc.b.Demand, n: resident}}
		}
		var byProcs [2]*Result
		for p := 1; p <= 2; p++ {
			withProcs(p, func() {
				pipelined := p == 2 && n >= overlapDrawMin
				if got := overlapsDraw(tc.cfg, n); got != pipelined {
					t.Fatalf("%s at GOMAXPROCS %d: overlapsDraw = %v, want %v", tc.what, p, got, pipelined)
				}
				before := tandemFallbacks.Load()
				var res *Result
				folded := countFolded(func() {
					var err error
					if res, err = Run(tc.cfg, tc.b); err != nil {
						t.Fatal(err)
					}
				})
				if tandemFallbacks.Load() != before {
					t.Fatalf("%s: the solver fell back; the case proves nothing about the solved path", tc.what)
				}
				if want := map[bool]int64{false: 0, true: 1}[pipelined]; folded != want {
					t.Fatalf("%s at GOMAXPROCS %d: the follower folded %d bursts, want %d", tc.what, p, folded, want)
				}
				checkColumnsAgainstRows(t, fmt.Sprintf("%s at GOMAXPROCS %d", tc.what, p), res, 1, groupsOf)
				byProcs[p-1] = res
			})
		}
		sameResultBits(t, tc.what+": GOMAXPROCS 2 vs 1", byProcs[1], byProcs[0])
	}

	// A tie only the engine can order: the solver declines it partway, and
	// the evented path re-runs the burst on the execs the join handed over.
	b := Burst{Demand: tandemLight, Functions: overlapDrawMin + 1, Degree: 1, Seed: 11}
	one := func(i int) []demandGroup { return []demandGroup{{d: b.Demand, n: 1}} }
	withProcs(2, func() {
		before := tandemFallbacks.Load()
		res, err := Run(tiedAboveThreshold(), b)
		if err != nil {
			t.Fatal(err)
		}
		if tandemFallbacks.Load() == before {
			t.Fatal("the tied burst was solved: the fallback after the join went unexercised")
		}
		checkColumnsAgainstRows(t, "tie-forced fallback", res, 1, one)
		evented, err := Run(forcedEvented(tiedAboveThreshold(), b.Instances()), b)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBits(t, "tie-forced fallback vs forced-evented", res, evented)
	})

	// Four cells, each above the threshold: all pipelined, on the parallel
	// fan-out's goroutines, and the merge re-folds the concatenated columns;
	// at GOMAXPROCS 1 none is.
	b = Burst{Demand: d, Functions: 4*overlapDrawMin + 3, Degree: 1, Warm: 5, Seed: 13}
	sharded := func() *Result {
		res, err := RunSharded(AWSLambda(), b, Sharding{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var inline *Result
	withProcs(1, func() { inline = sharded() })
	withProcs(2, func() {
		var res *Result
		if folded := countFolded(func() { res = sharded() }); folded != 4 {
			t.Fatalf("RunSharded×4: the follower folded %d cells, want all 4", folded)
		}
		checkColumnsAgainstRows(t, "RunSharded×4 above the threshold", res, 4, one)
		sameResultBits(t, "RunSharded×4: pipelined vs inline", res, inline)
	})
}
