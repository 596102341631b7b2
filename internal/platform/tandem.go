package platform

import (
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

// The tandem solver: a dice-free burst without the event engine. With no
// fault dice, hedge or account throttle, nothing past image availability
// touches shared state, and the scheduler, builder and shipper are three FIFO
// stations in tandem whose service times depend only on their own completion
// counts and never shrink. Completions then leave every stage in index order
// and the run is the Lindley recursion
//
//	done[j] = max(arrive[j], done[j−servers]) + (base + growth·served)
//
// stage by stage, in the float expressions of the evented path (dispatch.go),
// which stays the specification. Two events at one instant the engine orders
// by which was scheduled first; a stage knows when each was (the instant its
// service began) and decides by that. When those instants tie too it does not
// guess: the whole burst goes to the evented path (DESIGN §16).

// tandemFallbacks counts the dice-free, unthrottled bursts the solver handed
// to the evented path: runControlPlane counts them there, so a solve that is
// declined and not run on (ExecTime's, before it calls Run) counts nothing.
var tandemFallbacks atomic.Int64

// tandem reports whether the platform's bursts go to the solver: no dice and
// no account throttle.
func (c *Config) tandem() bool { return c.ConcurrencyLimit == 0 && !c.faulty() }

// tandemStage is one station: its constants, and the service begin and
// completion instants of its last `servers` jobs — all that can still be in
// service — job k's in ring slot k mod servers.
type tandemStage struct {
	servers      int
	base, growth float64
	begun, done  []float64
	jobs, slot   int     // jobs admitted, and jobs mod servers
	served       int     // completions dispatched before the last arrival to find a free server
	last         float64 // the latest completion: the floor for the next
	busySec      float64
	bad          bool // the recurrence cannot vouch for the evented order
}

// init readies the stage for a run of at most n jobs, keeping its rings. It
// sets field by field: on a one-instance probe a struct literal's copy costs
// more than the stage's work.
func (st *tandemStage) init(servers, n int, base, growth float64) {
	st.servers, st.base, st.growth = servers, base, growth
	st.begun, st.done = grownZeroed(st.begun, min(servers, n)), grownZeroed(st.done, min(servers, n))
	st.jobs, st.slot, st.served, st.last, st.busySec, st.bad = 0, 0, 0, 0, 0, false
}

// dispatched reports whether the completion in ring slot k dispatches before
// an arrival at arrive whose event was scheduled at instant: strictly
// earlier, or at the same time and scheduled earlier.
func (st *tandemStage) dispatched(k int, arrive, instant float64) bool {
	if d := st.done[k]; d != arrive {
		return d < arrive
	}
	st.bad = st.bad || st.begun[k] == instant
	return st.begun[k] < instant
}

// serve admits the stage's next job, arriving at arrive on an event scheduled
// at instant, and returns when its service begins and ends. An undecidable
// tie, a service time the station would refuse or a completion out of order
// marks the stage bad.
func (st *tandemStage) serve(arrive, instant float64) (begin, end float64) {
	j, s := st.jobs, st.servers
	begin, served := arrive, 0
	if j >= s && !st.dispatched(st.slot, arrive, instant) {
		// Every server is busy: the job queues behind job j−s, whose
		// completion counts itself and then starts it.
		begin, served = st.done[st.slot], j-s+1
	} else {
		// A server is free, so at most s−1 jobs are in service; those of them
		// that complete before the arrival have been counted when it starts.
		st.served = max(st.served, j-s+1)
		for st.served < j && st.dispatched(st.served%s, arrive, instant) {
			st.served++
		}
		served = st.served
	}
	d := st.base + st.growth*float64(served)
	end = begin + d
	st.bad = st.bad || !(d >= 0 && end >= st.last && end <= math.MaxFloat64)
	st.begun[st.slot], st.done[st.slot], st.last = begin, end, end
	st.busySec += d
	st.jobs++
	if st.slot++; st.slot == s {
		st.slot = 0
	}
	return begin, end
}

// solveTandem fills cp.ib's milestone columns up to start for a dice-free,
// unthrottled burst on cfg, instance k arriving at k·stagger: each instance
// through the three stages, then boot as the timer it is. A batch without
// schedDone, buildDone and shipDone (resetPlanned) gets start alone. It reads
// no execution time, and sends a non-nil feed its row count every followChunk
// rows and at the last. False: a stage went bad.
func (cp *controlPlane) solveTandem(cfg *Config, stagger float64, feed chan<- int) bool {
	ib, podSize := cp.ib, max(cfg.PodSize, 1)
	if min(cfg.SchedServers, cfg.BuildServers, cfg.ShipServers) < 1 {
		return false // the stations' panic, not ours
	}
	sched, build, ship := &cp.tandem[0], &cp.tandem[1], &cp.tandem[2]
	sched.init(cfg.SchedServers, ib.n, cfg.SchedBaseSec, cfg.SchedPerBusySec)
	build.init(cfg.BuildServers, ib.n, cfg.BuildSec, cfg.BuildGrowthSec)
	ship.init(cfg.ShipServers, ib.n, cfg.ShipSec, cfg.ShipGrowthSec)
	stagger = max(stagger, 0) // −0 becomes +0: unstaggered, everyone arrives at t=0
	milestones := ib.schedDone != nil
	// The pod being walked: its end, whether a cold member leads it yet, when its image shipped.
	podEnd, led, shippedAt := 0, false, 0.0
	for i := 0; i < ib.n; i++ {
		arrive := float64(i) * stagger
		if i == podEnd {
			podEnd, led = podEnd+podSize, false
		}
		// Arrivals are scheduled before any completion: they win every tie.
		placing, placed := sched.serve(arrive, math.Inf(-1))
		built, shipped := placed, placed
		from, delay := placed, cfg.WarmStartSec
		switch {
		case ib.warm(i):
		case !led:
			var building float64
			building, built = build.serve(placed, placing)
			_, shipped = ship.serve(built, building)
			led, shippedAt = true, shipped
			from, delay = shipped, cfg.BootSec
		default: // a follower boots once it is placed and its pod's image is there
			built, shipped = shippedAt, shippedAt
			from, delay = max(placed, shippedAt), cfg.BootSec
		}
		if sched.bad || build.bad || ship.bad {
			return false
		}
		if milestones {
			ib.schedDone[i], ib.buildDone[i], ib.shipDone[i] = placed, built, shipped
		}
		ib.start[i] = sim.TimerAt(from, delay)
		if feed != nil && ((i+1)%followChunk == 0 || i+1 == ib.n) {
			feed <- i + 1 // never blocks: the feed holds every chunk
		}
	}
	// The stations' totals, where the Result reads them.
	cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds = sched.busySec, build.busySec, ship.busySec
	return true
}
