package platform

// instanceColumns is a run's finished per-instance record in
// struct-of-arrays layout: every lifecycle milestone, fault counter, and
// flag lives in its own densely packed column rather than as a field of a
// 120-byte Timeline struct. The control-plane handlers touch one or two
// fields per event and every Result metric folds over one or two columns,
// so each cache line stays full of the field being worked on; at
// million-instance bursts that is the difference between streaming 8 MB and
// copying 120 MB to answer ScalingTime.
//
// Ownership: the columns escape. They are allocated fresh for each run —
// one slab per element type, so a small burst pays three allocations rather
// than thirteen — filled in place by the control plane, and handed to the
// Result, which owns them from then on. Nothing here is pooled;
// runScratch.release drops the scratch's references. A run carries the
// columns its Config can write: 45 bytes per instance, the six fault and
// hedge columns (32 more) only under Config.faulty. A run inside the schedule
// store's gate carries 21: schedDone, buildDone and shipDone are absent, and
// Result.resolved solves them again for the readers that ask (store.go). An
// absent fault column is nil and every fold reads it as the zeros it would
// have held, so a read that forgets to ask panics instead of inventing a
// zero.
type instanceColumns struct {
	n int

	// Fixed per-instance inputs, set before the run.
	degree []int32 // functions resident in the instance
	flags  []uint8 // warm / hedged / hedge-won bits

	// Lifecycle milestones, written as the control plane progresses; the
	// first three are nil in a run the tandem solver finished in the
	// schedule store's gate.
	schedDone []float64
	buildDone []float64
	shipDone  []float64
	start     []float64
	end       []float64

	// Fault-injection and hedging outcomes; nil unless the run was faulty.
	retries       []int32
	crashes       []int32
	timeouts      []int32
	straggled     []int32
	failedSec     []float64
	hedgeExtraSec []float64
}

// instanceBatch is the control plane's per-instance working state: the
// escaping instanceColumns plus the columns only the simulation itself
// reads. The latter never leave the run, so they live on (and are reused
// through) the pooled runScratch — burst-heavy paths (probe fan-outs,
// planner sweeps) reallocate only what they hand to their caller.
type instanceBatch struct {
	instanceColumns

	execs     []float64 // planned execution duration (jitter applied)
	prevDelay []float64 // decorrelated-jitter backoff memory
	// pendDur is the crash/timeout offset scheduled against the in-flight
	// attempt: the typed dispatch handler reads it back instead of a closure
	// capturing the sampled value (recomputing it from the event timestamp
	// would round differently).
	pendDur []float64
}

const (
	flagWarm = uint8(1) << iota
	flagHedged
	flagHedgeWon
)

// newInstanceColumns allocates zeroed columns for n instances, carving each
// element type's columns out of a single slab.
func newInstanceColumns(n int, faulty bool) instanceColumns {
	nf, ni := 5, 1
	if faulty {
		nf, ni = 7, 5
	}
	f := make([]float64, nf*n)
	i := make([]int32, ni*n)
	col := func(k int) []float64 { return f[k*n : (k+1)*n : (k+1)*n] }
	icol := func(k int) []int32 { return i[k*n : (k+1)*n : (k+1)*n] }
	c := instanceColumns{
		n:         n,
		degree:    icol(0),
		flags:     make([]uint8, n),
		schedDone: col(0),
		buildDone: col(1),
		shipDone:  col(2),
		start:     col(3),
		end:       col(4),
	}
	if faulty {
		c.retries, c.crashes, c.timeouts, c.straggled = icol(1), icol(2), icol(3), icol(4)
		c.failedSec, c.hedgeExtraSec = col(5), col(6)
	}
	return c
}

// reset gives the batch fresh result columns for n instances and sizes the
// pooled simulation-only ones: execs, which the run writes in full before it
// reads any, as it stands; the backoff scratch zeroed, and only if faulty.
func (ib *instanceBatch) reset(n int, faulty bool) {
	ib.instanceColumns = newInstanceColumns(n, faulty)
	ib.execs = grown(ib.execs, n)
	ib.prevDelay, ib.pendDur = ib.prevDelay[:0], ib.pendDur[:0]
	if faulty {
		ib.prevDelay = grownZeroed(ib.prevDelay, n)
		ib.pendDur = grownZeroed(ib.pendDur, n)
	}
}

// resetRow is reset for ExecTime's one dice-free instance, whose result
// columns no Result takes: they are row's, allocated on the scratch's first
// probe and kept. The run writes every other column of the row before it
// reads it; flags it only ORs into.
func (ib *instanceBatch) resetRow(row *instanceColumns) {
	if row.n == 0 {
		*row = newInstanceColumns(1, false)
	}
	row.flags[0] = 0
	ib.instanceColumns = *row
	ib.execs = grown(ib.execs, 1)
	ib.prevDelay, ib.pendDur = ib.prevDelay[:0], ib.pendDur[:0]
}

// resetPlanned is reset for a run inside the schedule store's gate
// (store.go), which is dice-free: its start column is the plan's — on a hit
// the store's, which nothing writes — and end, degree and flags come in slabs
// of their own, so a stored slab keeps no end column alive. schedDone,
// buildDone and shipDone are absent: a run reads none of them, the solver
// skips them, and Result.resolved solves them again for the few readers that
// ask; a run the solver declines gets them before the engine runs
// (withMilestones). A hit draws its execution times into its end column,
// which the end pass then overwrites row by row — end[i] = TimerAt(start[i],
// end[i]) — so it needs no execs buffer: a hit never falls back to the
// engine, the one reader of execs besides the end pass.
func (ib *instanceBatch) resetPlanned(n int, p *schedulePlan) {
	ib.instanceColumns = instanceColumns{
		n:      n,
		degree: make([]int32, n),
		flags:  make([]uint8, n),
		start:  p.start,
		end:    make([]float64, n),
	}
	if p.hit {
		ib.execs = ib.end
	} else {
		ib.execs = grown(ib.execs, n)
	}
	ib.prevDelay, ib.pendDur = ib.prevDelay[:0], ib.pendDur[:0]
}

// withMilestones gives a planned run's columns the schedDone, buildDone and
// shipDone the engine writes, in one fresh slab.
func (c *instanceColumns) withMilestones() {
	n := c.n
	f := make([]float64, 3*n)
	c.schedDone, c.buildDone, c.shipDone = f[:n:n], f[n:2*n:2*n], f[2*n:]
}

// faulty reports whether the fault and hedge columns exist.
func (c *instanceColumns) faulty() bool { return c.retries != nil }

func (c *instanceColumns) warm(i int) bool { return c.flags[i]&flagWarm != 0 }

// allWarmBefore reports whether every instance in [lo, i) is warm, which
// promotes i to pod leader (warm instances never build).
func (c *instanceColumns) allWarmBefore(lo, i int) bool {
	for j := lo; j < i; j++ {
		if c.flags[j]&flagWarm == 0 {
			return false
		}
	}
	return true
}

// wastedSec is instance i's billed time that produced no results: failed
// attempts plus the losing copy of a hedged execution.
func (c *instanceColumns) wastedSec(i int) float64 {
	w := c.failedSec[i]
	if c.flags[i]&flagHedged != 0 {
		if c.flags[i]&flagHedgeWon != 0 {
			w += c.end[i] - c.start[i] // the primary ran until the duplicate won
		} else {
			w += c.hedgeExtraSec[i] // the duplicate ran until the primary won
		}
	}
	return w
}

// copyAt copies src's rows, every milestone among them (Result.resolved),
// into c starting at row lo.
func (c *instanceColumns) copyAt(lo int, src *instanceColumns) {
	copy(c.degree[lo:], src.degree)
	copy(c.flags[lo:], src.flags)
	copy(c.schedDone[lo:], src.schedDone)
	copy(c.buildDone[lo:], src.buildDone)
	copy(c.shipDone[lo:], src.shipDone)
	copy(c.start[lo:], src.start)
	copy(c.end[lo:], src.end)
	if !src.faulty() {
		return
	}
	copy(c.retries[lo:], src.retries)
	copy(c.crashes[lo:], src.crashes)
	copy(c.timeouts[lo:], src.timeouts)
	copy(c.straggled[lo:], src.straggled)
	copy(c.failedSec[lo:], src.failedSec)
	copy(c.hedgeExtraSec[lo:], src.hedgeExtraSec)
}

// materialize builds the row view of the columns, one Timeline per
// instance with Index equal to its position. Result.Timelines is the only
// production caller: every metric folds over the columns directly.
func (c *instanceColumns) materialize() []Timeline {
	ts := make([]Timeline, c.n)
	for i := range ts {
		ts[i] = Timeline{
			Index:     i,
			Degree:    int(c.degree[i]),
			Warm:      c.flags[i]&flagWarm != 0,
			SchedDone: c.schedDone[i],
			BuildDone: c.buildDone[i],
			ShipDone:  c.shipDone[i],
			Start:     c.start[i],
			End:       c.end[i],
			Hedged:    c.flags[i]&flagHedged != 0,
			HedgeWon:  c.flags[i]&flagHedgeWon != 0,
		}
		if c.faulty() {
			ts[i].Retries, ts[i].Crashes, ts[i].Timeouts = int(c.retries[i]), int(c.crashes[i]), int(c.timeouts[i])
			ts[i].Straggled, ts[i].FailedSec, ts[i].HedgeExtraSec = int(c.straggled[i]), c.failedSec[i], c.hedgeExtraSec[i]
		}
	}
	return ts
}

// grown resizes s to length n, keeping whatever its elements hold.
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// grownZeroed resizes s to length n, zeroing every element.
func grownZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
