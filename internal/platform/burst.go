package platform

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// ErrExecLimit is returned when an instance's execution time would exceed
// the platform's limit (e.g. 15 minutes on Lambda) — the failure mode the
// paper notes for long functions at high packing degrees.
var ErrExecLimit = errors.New("platform: execution exceeds platform limit")

// ErrStartFailed is returned when an instance exhausts its start retries
// under failure injection.
var ErrStartFailed = errors.New("platform: instance failed to start after retries")

// ErrExecFailed is returned when an instance exhausts its execution retries
// (mid-execution crashes or timeouts) under failure injection.
var ErrExecFailed = errors.New("platform: instance failed to execute after retries")

// Burst describes one concurrent invocation wave: C logical functions
// packed at degree P, yielding ceil(C/P) function instances spawned
// simultaneously (the Step Functions map-state pattern).
type Burst struct {
	// Demand is the per-function resource profile.
	Demand interfere.Demand
	// Functions is C, the application's requested concurrency.
	Functions int
	// Degree is P, the packing degree; 1 is the traditional baseline.
	Degree int
	// Warm is the number of instances served from a warm pool (reused
	// instances skip build, ship, and boot — the Pywren optimization).
	Warm int
	// StaggerSec spaces out invocations: instance k is invoked at
	// k·StaggerSec instead of all at t=0. 0 is the usual simultaneous
	// burst. (Staggering is the latency-hiding alternative the paper
	// rejects in Sec. 4: it empties the control-plane queues but delays the
	// last start by C·StaggerSec.)
	StaggerSec float64
	// Seed drives execution-time jitter.
	Seed int64

	// Recorder receives event-level observability records (lifecycle stage
	// spans, fault and hedge events). Nil disables observability at zero
	// cost; see internal/obs.
	Recorder obs.Recorder
	// Label names the burst in exported traces ("degree-8", "unpacked");
	// may be empty.
	Label string
}

// Instances is the number of function instances the burst spawns:
// ceil(Functions / Degree), 0 for no functions.
func (b Burst) Instances() int {
	if b.Functions < 1 {
		return 0
	}
	return (b.Functions-1)/b.Degree + 1 // Functions+Degree−1 overflows at MaxInt
}

// Validate reports an error for malformed bursts.
func (b Burst) Validate() error { return b.validate() }

// validate is Validate without the copy of the Burst, for Run's validation.
func (b *Burst) validate() error {
	if err := b.Demand.Validate(); err != nil {
		return err
	}
	switch {
	case b.Functions < 1:
		return fmt.Errorf("platform: burst needs ≥1 function, have %d", b.Functions)
	case b.Degree < 1:
		return fmt.Errorf("platform: packing degree must be ≥1, have %d", b.Degree)
	case b.Instances() > math.MaxInt32:
		// Instance indices are int32 event subjects and the degree column int32.
		return fmt.Errorf("platform: burst of %d functions at degree %d spawns %d instances, more than %d",
			b.Functions, b.Degree, b.Instances(), math.MaxInt32)
	case b.Warm < 0:
		return fmt.Errorf("platform: negative warm count %d", b.Warm)
	case b.StaggerSec < 0:
		return fmt.Errorf("platform: negative stagger %g", b.StaggerSec)
	case !stats.FiniteNonNeg(b.StaggerSec):
		return fmt.Errorf("platform: non-finite stagger %g", b.StaggerSec)
	}
	return nil
}

// Timeline is the row view of one instance's trip through the control
// plane, built on demand by Result.Timelines from the Result's columns — for
// tests, the CSV exporter, and anything else that wants to look at whole
// instances rather than fold a metric. All times are seconds since the
// burst's invocation.
type Timeline struct {
	Index     int
	Degree    int  // functions packed in this instance
	Warm      bool // served from the warm pool
	Retries   int  // start attempts beyond the first (failure injection)
	SchedDone float64
	BuildDone float64 // == SchedDone for warm instances
	ShipDone  float64 // == SchedDone for warm instances
	Start     float64 // execution begins (of the final, successful attempt)
	End       float64 // execution ends

	// Fault-injection outcomes. Failed attempts are billed — FailedSec is
	// the execution time they consumed before crashing or timing out.
	Crashes   int     // mid-execution crashes survived via retry
	Timeouts  int     // execution-timeout kills survived via retry
	Straggled int     // attempts hit by straggler slowdown
	FailedSec float64 // billed execution seconds of failed attempts

	// Hedging outcomes. HedgeExtraSec is the billed execution time of the
	// speculative duplicate (the loser is killed when the winner finishes).
	Hedged        bool
	HedgeWon      bool // the duplicate finished first
	HedgeExtraSec float64
}

// Result is the outcome of simulating one burst. The per-instance record is
// columnar: the Result owns the run's instanceColumns, and carries the order
// statistics and sums the scalar metrics read, folded once over the columns
// by whatever built it (fold). The row view is never stored — Timelines
// materializes it when asked.
type Result struct {
	Config Config
	Burst  Burst
	cols   instanceColumns
	sum    summary
	// Bins is non-nil for heterogeneous (RunMixed) bursts and records each
	// instance's resident function set; Burst.Degree is 0 in that case.
	Bins []Bin

	// Expense breakdown in USD.
	ComputeUSD float64
	RequestUSD float64
	StorageUSD float64
	// WastedUSD is the share of ComputeUSD spent on failed attempts and
	// losing hedge copies — already included in ComputeUSD, broken out so
	// failure injection's cost is auditable.
	WastedUSD float64

	// Fault-tolerance aggregates across all instances.
	StartRetries   int // cold-start re-submissions
	Crashes        int // mid-execution crashes retried
	Timeouts       int // execution-timeout kills retried
	HedgesLaunched int // speculative duplicates started
	HedgesWon      int // duplicates that finished first

	// Per-stage aggregate busy time, normalized per server: how long each
	// control-plane resource actually worked for this burst. The stages
	// pipeline, so these overlap and need not sum to the scaling time.
	SchedBusySec float64
	BuildBusySec float64
	ShipBusySec  float64
}

// ExpenseUSD is the total bill for the burst.
func (r *Result) ExpenseUSD() float64 { return r.ComputeUSD + r.RequestUSD + r.StorageUSD }

// Instances is the number of function instances the burst actually spawned
// (valid for both homogeneous and mixed bursts).
func (r *Result) Instances() int { return r.cols.n }

// Timelines materializes the per-instance row view, one fresh Timeline per
// instance in instance order (Timelines()[i].Index == i), its fault and hedge
// fields zero when the run carried no such columns. It costs 120 bytes per
// instance on every call: hold the slice, and prefer the metric methods.
func (r *Result) Timelines() []Timeline { return r.resolved().materialize() }

// Start is when instance i's final, successful execution attempt began.
func (r *Result) Start(i int) float64 { return r.cols.start[i] }

// End is when instance i's execution ended.
func (r *Result) End(i int) float64 { return r.cols.end[i] }

// Run simulates one invocation burst on the platform and returns the
// per-instance timelines plus the bill.
func Run(cfg Config, b Burst) (*Result, error) {
	draw, err := validateRun(&cfg, &b)
	if err != nil {
		return nil, err
	}
	n := b.Instances()
	sc := newRunScratch(&cfg, n, b.Warm, b.StaggerSec)
	defer sc.release() // aborts and joins a follower, panic or not
	// A dice-free burst's solver never reads the stream, so a large one ends
	// and folds on a second core behind the solver — behind the draw, when its
	// schedule is stored and this goroutine has nothing to solve (DESIGN §12).
	// The follower reads the degrees and warm flags as soon as a row range is
	// sent, so they are filled before it starts.
	fullDeg, lastDeg := sc.begin(&cfg, &b, draw)
	bk := billKeyOf(&cfg, &b.Demand, fullDeg, lastDeg, n)
	if !overlapsDraw(cfg, n) {
		sc.drawExecs(nil)
	} else {
		sc.fold.reset(&cfg, &b.Demand)
		sc.fold.billStored(&cfg, bk)
		sc.follow()
		if sc.plan.hit {
			sc.drawExecs(sc.feed)
		}
	}

	res, err := runCP(cfg, b, sc, sc.rng)
	if err != nil {
		return nil, err
	}
	switch {
	case sc.folded:
		sc.fold.intoStored(res, bk)
	case sc.plan.on:
		res.foldStoredBill(bk)
	default:
		res.fold(true, nil) // every instance holds degree[i] functions of b.Demand
	}
	return res, nil
}

// ExecTime is Eq. 1's probe (PAPER.md §2.1): one instance of degree
// functions of d on cfg, seeded seed — that is, Run(cfg, Burst{Demand: d,
// Functions: degree, Degree: degree, Seed: seed})'s MeanExecSeconds and
// StorageUSD + RequestUSD, bit for bit, or its error. On a dice-free,
// unthrottled platform it takes Run's own steps over one row of columns the
// pooled scratch keeps, and builds no Result; any other platform's probe, and
// one the solver declines, is Run.
func ExecTime(cfg Config, d interfere.Demand, degree int, seed int64) (execSec, feesUSD float64, err error) {
	var b Burst // set field by field: a struct literal's copy stalls, as in foldState.reset
	b.Demand, b.Functions, b.Degree, b.Seed = d, degree, degree, seed
	if cfg.tandem() {
		solved := false
		if execSec, feesUSD, solved, err = solvedExecTime(&cfg, &b); solved || err != nil {
			return execSec, feesUSD, err
		}
	}
	res, err := Run(cfg, b)
	if err != nil {
		return 0, 0, err
	}
	return res.MeanExecSeconds(), res.StorageUSD + res.RequestUSD, nil
}

// solvedExecTime is ExecTime on a dice-free, unthrottled cfg: Run's
// validation, draw, solver, end pass and fold over the scratch's one row, the
// fold and its meter on the stack. solved is false, and nothing else is set,
// when the solver declines the instance.
func solvedExecTime(cfg *Config, b *Burst) (execSec, feesUSD float64, solved bool, err error) {
	draw, err := validateRun(cfg, b)
	if err != nil {
		return 0, 0, false, err
	}
	sc := runScratchPool.Get().(*runScratch)
	defer sc.release()
	ib := &sc.batch
	ib.resetRow(&sc.row)
	sc.begin(cfg, b, draw)
	sc.drawExecs(nil)
	if sc.cp.ib = ib; !sc.solve(cfg, b.StaggerSec) {
		return 0, 0, false, nil
	}
	sim.TimersAt(ib.end, ib.start, ib.execs)
	var f foldState
	f.reset(cfg, &b.Demand)
	f.billed, f.meter = true, mustMeter(storage.NewMeter(cfg.Storage, cfg.StorageGBps))
	f.step(&ib.instanceColumns, 0, 1, nil)
	f.settle()
	return f.sum.meanExec(1), f.storage + f.request, true, nil
}

// begin readies the scratch's sized batch for b on cfg, before its control
// plane runs: the burst's jitter stream, each instance's degree (the full
// instances' and the last one's are returned), the warm prefix's flags and the
// jitter draw.
func (sc *runScratch) begin(cfg *Config, b *Burst, draw jitterDraw) (fullDeg, lastDeg int) {
	ib := &sc.batch
	n := ib.n
	sc.stream(b.Seed, hashName(cfg.Name))
	fullDeg, lastDeg = b.Degree, b.Functions-(n-1)*b.Degree
	for i := range ib.degree[:n-1] {
		ib.degree[i] = int32(fullDeg)
	}
	ib.degree[n-1] = int32(lastDeg)
	for i := range ib.flags[:min(b.Warm, n)] {
		ib.flags[i] |= flagWarm
	}
	sc.draw = draw
	return fullDeg, lastDeg
}

// validateRun is Run's validation, before the control-plane race: the Config,
// the Burst, and the execution limit at the full and the last instance's
// degree, the only two. It returns the burst's jitter draw.
func validateRun(cfg *Config, b *Burst) (jitterDraw, error) {
	if err := cfg.validate(); err != nil {
		return jitterDraw{}, err
	}
	if err := b.validate(); err != nil {
		return jitterDraw{}, err
	}
	n := b.Instances()
	fullDeg, lastDeg := b.Degree, b.Functions-(n-1)*b.Degree
	d := jitterDraw{rel: cfg.JitterRel}
	if n > 1 {
		d.full = interfere.ExecSeconds(b.Demand, cfg.Shape, fullDeg)
	}
	if d.last = d.full; lastDeg != fullDeg || n == 1 {
		d.last = interfere.ExecSeconds(b.Demand, cfg.Shape, lastDeg)
	}
	if n > 1 && d.full > cfg.MaxExecSec {
		return jitterDraw{}, fmt.Errorf("%w: degree %d needs %.1fs > %.0fs on %s", ErrExecLimit, fullDeg, d.full, cfg.MaxExecSec, cfg.Name)
	}
	if d.last > cfg.MaxExecSec {
		return jitterDraw{}, fmt.Errorf("%w: degree %d needs %.1fs > %.0fs on %s", ErrExecLimit, lastDeg, d.last, cfg.MaxExecSec, cfg.Name)
	}
	return d, nil
}

// overlapDrawMin is the smallest burst whose jitter draw Run hands to a second
// goroutine, the follower: below it, starting and joining the goroutine costs
// more than the work it hides (DESIGN §12 has the ladder it was read from).
const overlapDrawMin = 1 << 16

// overlapsDraw reports whether Run ends and folds a burst beside the solver:
// the tandem solver runs (it never reads the stream the draw advances), the
// burst is large enough to pay for a goroutine, and there is a second core
// to run it on. Such a burst is inside the stores' gate (store.go).
func overlapsDraw(cfg Config, n int) bool {
	return n >= overlapDrawMin && cfg.tandem() && runtime.GOMAXPROCS(0) > 1
}

// jitterDraw is what drawing a homogeneous burst's execution times takes
// besides the stream: the full instances' and the last instance's base
// durations, and the relative jitter.
type jitterDraw struct{ full, last, rel float64 }

// drawExecs fills the batch's execs from the scratch's stream, in instance
// order: base duration times jitter. A non-nil feed is sent the row count
// every followChunk rows and at the last, as the solver sends it.
func (sc *runScratch) drawExecs(feed chan<- int) {
	d, rng, execs := sc.draw, sc.rng, sc.batch.execs
	last := len(execs) - 1
	for lo := 0; lo < last; lo += followChunk {
		hi := min(lo+followChunk, last)
		rng.FillJitter(execs[lo:hi], d.full, d.rel)
		if feed != nil && hi%followChunk == 0 {
			feed <- hi // never blocks: the feed holds every chunk
		}
	}
	execs[last] = d.last * rng.Jitter(d.rel)
	if feed != nil {
		feed <- last + 1
	}
}

const followChunk = 4096 // rows the solver finishes between sends to the follower

// follow starts the follower: a goroutine that draws execs unless the solver
// goroutine does, then ends and folds into sc.fold, in order, each row range
// sent on sc.feed.
func (sc *runScratch) follow() {
	sc.feed, sc.folded = make(chan int, len(sc.batch.execs)/followChunk+1), false
	sc.drawing.Add(1)
	go sc.drawThenFollow(sc.feed, !sc.plan.hit)
}

func (sc *runScratch) drawThenFollow(feed <-chan int, draw bool) {
	defer sc.drawing.Done()
	defer func() { _ = recover() }() // a malformed duration: the caller's inline end pass panics with it
	if draw {
		sc.drawExecs(nil)
	}
	c, execs, done := &sc.batch.instanceColumns, sc.batch.execs, 0
	for rows := range feed {
		sim.TimersAt(c.end[done:rows], c.start[done:rows], execs[done:rows])
		sc.fold.step(c, done, rows, nil)
		done = rows
	}
	sc.folded = done == len(execs) // short of every row, the feed was aborted
}

// join closes the feed — before the solver's last row, an abort — and waits
// for the follower; every exit of a run joins, the deferred release last.
func (sc *runScratch) join() {
	if sc.feed != nil {
		close(sc.feed)
		sc.feed = nil
	}
	sc.drawing.Wait()
}

// demandGroup is a set of identical functions co-resident in one instance;
// billing treats same-demand functions jointly so shared-input and shuffle
// locality apply within the group.
type demandGroup struct {
	d interfere.Demand
	n int
}

// podState tracks one image pod's shipping status during the control-plane
// race.
type podState struct {
	shipped   bool
	shippedAt float64
	waiting   []int
}

// runScratch pools the per-burst working state that never escapes into the
// Result — the batch's simulation-only columns (execs, prevDelay, pendDur),
// pod bookkeeping, the event engine, the jitter stream's generator, and the
// typed-event dispatcher with its stations — so burst-heavy paths (probe
// fan-outs, sweeps) stop paying an allocation per array per burst.
// Everything pooled is fully reinitialized here and nothing downstream may
// retain a reference to it past release. The one thing on the scratch that
// does escape, the batch's instanceColumns, is allocated per run and belongs
// to the Result; release forgets it. ExecTime's probe builds no Result, so
// its one row of columns is pooled too: row.
type runScratch struct {
	batch instanceBatch
	row   instanceColumns
	pods  []podState
	eng   *sim.Engine
	rng   *sim.RNG
	cp    controlPlane

	// Run's jitter draw and its follower: the draw's parameters, the join, the
	// solver's feed (nil: no follower), the fold, and whether it saw every row.
	draw    jitterDraw
	drawing sync.WaitGroup
	feed    chan int
	fold    foldState
	folded  bool

	plan schedulePlan // the run's part in the schedule store (store.go)
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// newRunScratch returns a scratch whose batch is sized and zeroed for a run
// of n instances on cfg with warm instances and stagger, with fresh columns
// — except, on a hit in the schedule store, the milestones it reads there.
func newRunScratch(cfg *Config, n, warm int, stagger float64) *runScratch {
	sc := runScratchPool.Get().(*runScratch) // its plan off: release left it so
	if storesRun(cfg, n) {
		sc.plan = lookupSchedule(scheduleKeyOf(cfg, warm, stagger), n)
		sc.batch.resetPlanned(n, &sc.plan)
	} else {
		sc.batch.reset(n, cfg.faulty())
	}
	return sc
}

// stream returns the scratch's pooled generator restarted as
// sim.Stream(seed, id): the burst's one sequential jitter-and-fault stream.
func (sc *runScratch) stream(seed int64, id uint64) *sim.RNG {
	if sc.rng == nil {
		sc.rng = sim.Stream(seed, id)
	} else {
		sc.rng.Reseed(sim.SplitSeed(seed, id))
	}
	return sc.rng
}

// podStates returns the scratch's pod array sized and reset for n pods.
func (sc *runScratch) podStates(n int) []podState {
	if cap(sc.pods) < n {
		sc.pods = make([]podState, n)
	}
	sc.pods = sc.pods[:n]
	for i := range sc.pods {
		sc.pods[i].shipped = false
		sc.pods[i].shippedAt = 0
		sc.pods[i].waiting = sc.pods[i].waiting[:0]
	}
	return sc.pods
}

// release returns the scratch to the pool without the run's result columns
// or milestone slab: they are the Result's now (or garbage, if the run
// failed), and a pooled reference would pin them until the scratch's next
// use. Its schedule plan is left off. It first aborts and joins a follower
// still running, which a panic can leave behind.
func (sc *runScratch) release() {
	sc.join()
	if sc.plan.hit {
		sc.batch.execs = nil // the Result's end column
	}
	sc.batch.instanceColumns, sc.folded = instanceColumns{}, false
	sc.plan.on, sc.plan.hit, sc.plan.start = false, false, nil
	runScratchPool.Put(sc)
}

// engine returns the scratch's pooled event engine, reset to time zero.
// Dispatch order depends solely on (time, seq), so a reused engine is
// observationally identical to a fresh one.
func (sc *runScratch) engine() *sim.Engine {
	if sc.eng == nil {
		sc.eng = sim.NewEngine()
	}
	sc.eng.Reset()
	return sc.eng
}

// runCP is the control-plane entry point behind Run and RunMixed. It is a
// variable so the typed-vs-closure differential tests can swap in the
// frozen closure oracle (burst_closure_test.go) and require byte-identical
// Results and traces; production always runs the typed dispatcher.
var runCP = runControlPlane

// summary is what the scalar metrics read of a finished burst, folded over
// its columns in instance order with the float expressions the row-wise
// originals used (columns_equiv_test.go holds them to the same bits).
type summary struct {
	maxStart, minStart, maxEnd float64 // from 0, +Inf and 0: ScalingTime, firstStart, TotalServiceTime
	execSec                    float64 // Σ(end − start): FunctionSeconds
	failedSec                  float64 // Σ failedSec: FailedSeconds
}

// fold is the one pass that finishes a simulated burst: over its columns, in
// instance order, it summarizes it and, billed, computes its expense —
// compute GB·seconds, per-request fees, and storage traffic (with the
// packing-locality savings on shuffle and shared input described in
// interfere.Demand). groupsOf describes instance i's resident functions as
// same-demand groups; nil means degree[i] functions of r.Burst.Demand. A
// Result whose bill is already summed — a sharded merge — folds unbilled.
func (r *Result) fold(billed bool, groupsOf func(i int) []demandGroup) {
	var f foldState
	if f.reset(&r.Config, &r.Burst.Demand); billed {
		f.billed, f.meter = true, mustMeter(storage.NewMeter(r.Config.Storage, r.Config.StorageGBps))
	}
	f.step(&r.cols, 0, r.cols.n, groupsOf)
	f.into(r)
}

// foldStoredBill is fold(true, nil) for a homogeneous run inside the stores'
// gate (store.go), key its bill's: the request and storage fees are the bill
// store's, or metered and then stored.
func (r *Result) foldStoredBill(key billKey) {
	var f foldState
	f.reset(&r.Config, &r.Burst.Demand)
	f.billStored(&r.Config, key)
	f.step(&r.cols, 0, r.cols.n, nil)
	f.intoStored(r, key)
}

// billStored readies a reset f for a billed fold whose request and storage
// fees are the bill store's under key, or, on a miss, metered.
func (f *foldState) billStored(cfg *Config, key billKey) {
	f.billed = true
	if stored, hit := bills.lookup(key); hit {
		f.request, f.storage = stored.requestUSD, stored.storageUSD
	} else {
		f.meter = mustMeter(storage.NewMeter(cfg.Storage, cfg.StorageGBps))
	}
}

// intoStored is into for a fold billStored readied: a metered bill is stored.
func (f *foldState) intoStored(r *Result, key billKey) {
	metered := f.meter != nil
	f.into(r)
	if metered {
		bills.store(key, bill{r.RequestUSD, r.StorageUSD})
	}
}

// foldState is Result.fold between steps. Stepping it over consecutive
// ranges of rows gives the bits of one step over all of them.
type foldState struct {
	billed                            bool           // compute and waste are summed
	meter                             *storage.Meter // nil: requests and storage are not metered
	demand                            interfere.Demand
	memGB, gbSecUSD, requestUSD       float64
	sum                               summary
	compute, wasted, request, storage float64
}

// reset readies f, unbilled, for a fold's first step, field by field: on a
// small burst a struct literal's copy stalls on the stores that built it.
func (f *foldState) reset(cfg *Config, demand *interfere.Demand) {
	*f = foldState{}
	f.demand, f.sum.minStart = *demand, math.Inf(1)
	f.memGB, f.gbSecUSD, f.requestUSD = cfg.MemoryGB(), cfg.GBSecondUSD, cfg.PerRequestUSD
}

// mustMeter returns NewMeter's meter (Config.Validate guarantees bandwidth); it
// inlines, so a meter that does not escape stays on the stack.
func mustMeter(meter *storage.Meter, err error) *storage.Meter {
	if err != nil {
		panic(err)
	}
	return meter
}

// step folds rows [lo, hi) of c, in instance order; groupsOf is fold's.
func (f *foldState) step(c *instanceColumns, lo, hi int, groupsOf func(i int) []demandGroup) {
	faulty, billed, meter, demand := c.faulty(), f.billed, f.meter, f.demand
	memGB, gbSecUSD, requestUSD := f.memGB, f.gbSecUSD, f.requestUSD
	// Accumulators live in locals for the loop, so they can stay in registers.
	maxStart, minStart, maxEnd, execSec, failedSum := f.sum.maxStart, f.sum.minStart, f.sum.maxEnd, f.sum.execSec, f.sum.failedSec
	compute, wasted, request := f.compute, f.wasted, f.request
	for i := lo; i < hi; i++ {
		start, end := c.start[i], c.end[i]
		if start > maxStart {
			maxStart = start
		}
		if start < minStart {
			minStart = start
		}
		if end > maxEnd {
			maxEnd = end
		}
		exec := end - start
		execSec += exec
		// Failed attempts and hedge duplicates bill their partial GB·seconds
		// — failure visibly raises expense — and every re-invocation or
		// speculative launch pays the per-request fee. Storage traffic is
		// metered once per instance (only the winning attempt's results
		// land in the store).
		var failedSec, hedgeExtraSec, wastedSec float64 // absent columns read as zero
		launches := 1
		if faulty {
			failedSec, hedgeExtraSec, wastedSec = c.failedSec[i], c.hedgeExtraSec[i], c.wastedSec(i)
			launches += int(c.retries[i]) + int(c.crashes[i]) + int(c.timeouts[i])
			failedSum += failedSec
		}
		if !billed {
			continue
		}
		compute += (exec + failedSec + hedgeExtraSec) * memGB * gbSecUSD
		wasted += wastedSec * memGB * gbSecUSD
		if meter == nil {
			continue // the fees are the bill store's
		}
		if c.flags[i]&flagHedged != 0 {
			launches++
		}
		request += requestUSD * float64(launches)
		if groupsOf == nil {
			billGroup(meter, demand, int(c.degree[i]))
			continue
		}
		for _, g := range groupsOf(i) {
			billGroup(meter, g.d, g.n)
		}
	}
	f.sum = summary{maxStart: maxStart, minStart: minStart, maxEnd: maxEnd, execSec: execSec, failedSec: failedSum}
	f.compute, f.wasted, f.request = compute, wasted, request
}

// settle reads a metered fold's storage fee off its meter.
func (f *foldState) settle() {
	if f.meter != nil {
		f.storage = f.meter.CostUSD()
	}
}

// into stores the folded summary, and the bill if billed, in r.
func (f *foldState) into(r *Result) {
	r.sum = f.sum
	if f.settle(); f.billed {
		r.ComputeUSD, r.WastedUSD, r.RequestUSD, r.StorageUSD = f.compute, f.wasted, f.request, f.storage
	}
}

// billGroup meters the storage traffic of n same-demand functions resident
// in one instance.
func billGroup(meter *storage.Meter, d interfere.Demand, n int) {
	// Input fetches: one per function, or one per instance group when all
	// functions of the application read the same object.
	if d.SharedInput {
		meter.RecordGet(d.InputMB)
	} else {
		for k := 0; k < n; k++ {
			meter.RecordGet(d.InputMB)
		}
	}
	// Shuffle: with neighbor partners, (n−1)/n of the group's n·OutputMB·SF
	// shuffle traffic is local, leaving OutputMB·SF remote per group — so
	// total remote shuffle shrinks by 1/n relative to no packing.
	if d.ShuffleFraction > 0 {
		remote := d.OutputMB * d.ShuffleFraction
		meter.RecordPut(remote)
		meter.RecordGet(remote)
	}
	// Final (non-shuffle) output always lands in the store.
	for k := 0; k < n; k++ {
		meter.RecordPut(d.OutputMB * (1 - d.ShuffleFraction))
	}
}

// hashName gives each platform its own jitter stream so cross-platform
// comparisons are not artificially correlated.
func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// --- Result metrics (the paper's figures of merit, Sec. 3) ---
//
// The scalar ones read the summary the Result was folded into; the rest fold
// over the columns they need, in instance order. Either way the
// floating-point expressions are the row-wise originals', and the retained
// references in columns_equiv_test.go hold them to the same bits.

// ScalingTime is the time between invocation and the start of the last
// instance (equivalently: first-to-last start spread plus the first
// instance's provisioning delay).
func (r *Result) ScalingTime() float64 { return r.sum.maxStart }

// firstStart is the provisioning delay of the first instance to start.
func (r *Result) firstStart() float64 { return r.sum.minStart }

// TotalServiceTime is the time between the start of the first instance and
// the end of the last one ("total service time" in the paper).
func (r *Result) TotalServiceTime() float64 { return r.sum.maxEnd - r.sum.minStart }

// ServiceTimeAtQuantiles answers several service-time quantiles from one
// selection over the end column (stats.Quantiles) — callers reporting tail
// and median together pay for two ranks, not a sort apiece.
func (r *Result) ServiceTimeAtQuantiles(qs ...float64) []float64 {
	out := stats.Quantiles(r.cols.end, qs...)
	first := r.firstStart()
	for i := range out {
		out[i] -= first
	}
	return out
}

// FunctionSeconds is the summed execution time across all instances — the
// "function hours" resource-accounting metric of paper Fig. 12 (×3600).
func (r *Result) FunctionSeconds() float64 { return r.sum.execSec }

// MeanExecSeconds is the average per-instance execution time.
func (r *Result) MeanExecSeconds() float64 { return r.sum.meanExec(r.cols.n) }

// meanExec is the average execution time of the summary's n instances.
func (s *summary) meanExec(n int) float64 {
	if n == 0 {
		return 0
	}
	return s.execSec / float64(n)
}

// FailedSeconds is the summed billed execution time of failed attempts
// (crashes and timeouts) across all instances.
func (r *Result) FailedSeconds() float64 { return r.sum.failedSec }
