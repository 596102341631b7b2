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
// one slab per element type, 77 bytes per instance, so a small burst pays
// three allocations rather than thirteen — filled in place by the control
// plane, and handed to the Result, which owns them from then on. Nothing
// here is pooled; runScratch.release drops the scratch's references.
type instanceColumns struct {
	n int

	// Fixed per-instance inputs, set before the run.
	degree []int32 // functions resident in the instance
	flags  []uint8 // warm / hedged / hedge-won bits

	// Lifecycle milestones, written as the control plane progresses.
	schedDone []float64
	buildDone []float64
	shipDone  []float64
	start     []float64
	end       []float64

	// Fault-injection and hedging outcomes.
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
func newInstanceColumns(n int) instanceColumns {
	f := make([]float64, 7*n)
	i := make([]int32, 5*n)
	col := func(k int) []float64 { return f[k*n : (k+1)*n : (k+1)*n] }
	icol := func(k int) []int32 { return i[k*n : (k+1)*n : (k+1)*n] }
	return instanceColumns{
		n:             n,
		degree:        icol(0),
		flags:         make([]uint8, n),
		schedDone:     col(0),
		buildDone:     col(1),
		shipDone:      col(2),
		start:         col(3),
		end:           col(4),
		retries:       icol(1),
		crashes:       icol(2),
		timeouts:      icol(3),
		straggled:     icol(4),
		failedSec:     col(5),
		hedgeExtraSec: col(6),
	}
}

// reset gives the batch fresh result columns for n instances and sizes and
// zeroes the pooled simulation-only ones.
func (ib *instanceBatch) reset(n int) {
	ib.instanceColumns = newInstanceColumns(n)
	ib.execs = grownZeroed(ib.execs, n)
	ib.prevDelay = grownZeroed(ib.prevDelay, n)
	ib.pendDur = grownZeroed(ib.pendDur, n)
}

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

// copyAt copies src's rows into c starting at row lo.
func (c *instanceColumns) copyAt(lo int, src *instanceColumns) {
	copy(c.degree[lo:], src.degree)
	copy(c.flags[lo:], src.flags)
	copy(c.schedDone[lo:], src.schedDone)
	copy(c.buildDone[lo:], src.buildDone)
	copy(c.shipDone[lo:], src.shipDone)
	copy(c.start[lo:], src.start)
	copy(c.end[lo:], src.end)
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
			Index:         i,
			Degree:        int(c.degree[i]),
			Warm:          c.flags[i]&flagWarm != 0,
			Retries:       int(c.retries[i]),
			SchedDone:     c.schedDone[i],
			BuildDone:     c.buildDone[i],
			ShipDone:      c.shipDone[i],
			Start:         c.start[i],
			End:           c.end[i],
			Crashes:       int(c.crashes[i]),
			Timeouts:      int(c.timeouts[i]),
			Straggled:     int(c.straggled[i]),
			FailedSec:     c.failedSec[i],
			Hedged:        c.flags[i]&flagHedged != 0,
			HedgeWon:      c.flags[i]&flagHedgeWon != 0,
			HedgeExtraSec: c.hedgeExtraSec[i],
		}
	}
	return ts
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
