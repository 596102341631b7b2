package platform

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Typed-event control plane: the closure-free rewrite of the burst
// simulation. Every lifecycle transition the closure implementation
// scheduled as a heap-allocated func() is a plain (kind, subject) word
// here, dispatched through controlPlane.Dispatch — one switch registered
// with the engine per run. Per-instance mutable state that the closures
// captured (retry counts, the sampled crash offset, hedge bookkeeping)
// lives in the struct-of-arrays instanceBatch instead, so a burst of N
// instances schedules O(N) events with zero per-event allocations.
//
// Correctness is not renegotiated: the retained closure implementation
// (burst_closure_test.go) is the frozen specification, and the typed path
// is held to its exact bytes — Results and JSONL traces — by the
// differential suite. The oracle's closure station schedules on the
// engine's heap alone, so the comparison also holds the typed stations'
// lanes to a run without them.
//
// Events are for runs whose instances can affect one another past the three
// stations: through the fault dice (one RNG stream), the hedge policy or the
// account throttle. A run with none of those is solved as three FIFO queues
// in tandem (tandem.go) and comes here, for 5 events per cold instance and 3
// per warm one, only when that solver meets a tie it cannot order (DESIGN §16).

// Event kinds of the burst control plane. Values are engine-local and
// meaningless outside this dispatcher; 0 is left unused so a zeroed event
// word can never masquerade as a real transition.
const (
	evAdmit       uint8 = iota + 1 // arrival at the platform (staggered bursts)
	evSchedDone                    // scheduler placement completed
	evBuildDone                    // image build completed
	evShipDone                     // image ship completed
	evBootDone                     // host boot timer fired
	evWarmDone                     // warm-start timer fired
	evBackoffDone                  // retry backoff expired: re-enter the scheduler
	evCrash                        // mid-execution crash strikes the attempt
	evTimeout                      // execution timeout kills the attempt
	evEnd                          // execution completes
)

// controlPlane is the per-run dispatcher: the engine's EventSink plus every
// piece of state the closure implementation captured in its environment. It
// lives inside the pooled runScratch, so its queues and recorder-tracking
// arrays are reused across bursts.
type controlPlane struct {
	eng *sim.Engine
	cfg Config
	ib  *instanceBatch
	rng *sim.RNG
	rec obs.Recorder

	// admitted is recorder-only tracking (not part of Timeline): first
	// scheduler entry, for the queued/sched lifecycle spans. Nil unless a
	// recorder watches a throttled run; otherwise an instance enters on arrival.
	admitted []float64

	sched, build, ship          sim.TypedStation
	schedSvc, buildSvc, shipSvc func(int32) float64
	pods                        []podState
	podSize                     int
	maxRetries                  int
	retryPol                    resilience.Backoff
	hedgeThr                    float64
	limit                       int
	tandem                      [3]tandemStage // the dice-free solver's stages

	// Account-level throttling: at most limit instances admitted at once;
	// the rest wait FIFO (cursor-consumed, pooled) for a release.
	running     int
	throttleQ   []int32
	throttlePos int

	burstErr error
}

// Dispatch is the control plane's kind table. Station completions follow
// the three-step protocol the closure station performed implicitly:
// Complete (counters), the lifecycle logic, then Next (start the next
// queued job) — downstream events are sequence-numbered by that order.
func (cp *controlPlane) Dispatch(kind uint8, sub int32) {
	switch kind {
	case evAdmit:
		cp.admit(sub)
	case evSchedDone:
		cp.sched.Complete(sub)
		cp.onSchedDone(sub)
		cp.sched.Next()
	case evBuildDone:
		cp.build.Complete(sub)
		cp.onBuildDone(sub)
		cp.build.Next()
	case evShipDone:
		cp.ship.Complete(sub)
		cp.onShipDone(sub)
		cp.ship.Next()
	case evBootDone:
		cp.onBootDone(sub)
	case evWarmDone:
		cp.finish(sub)
	case evBackoffDone:
		cp.submitSched(sub)
	case evCrash:
		cp.onCrash(sub)
	case evTimeout:
		cp.onTimeout(sub)
	case evEnd:
		cp.onEnd(sub)
	default:
		panic(fmt.Sprintf("platform: unknown control-plane event kind %d", kind))
	}
}

// admit requests placement for instance i, subject to account-level
// throttling: beyond ConcurrencyLimit, instances wait FIFO for a running
// one to finish.
func (cp *controlPlane) admit(i int32) {
	if cp.limit > 0 && cp.running >= cp.limit {
		cp.throttleQ = append(cp.throttleQ, i)
		return
	}
	cp.running++
	cp.submitSched(i)
}

// release frees an admission slot and admits the next throttled instance.
func (cp *controlPlane) release() {
	cp.running--
	if cp.throttlePos < len(cp.throttleQ) {
		next := cp.throttleQ[cp.throttlePos]
		cp.throttlePos++
		if cp.throttlePos == len(cp.throttleQ) {
			cp.throttleQ = cp.throttleQ[:0]
			cp.throttlePos = 0
		}
		cp.running++
		cp.submitSched(next)
	}
}

func (cp *controlPlane) submitSched(i int32) {
	if cp.admitted != nil && cp.admitted[i] < 0 {
		cp.admitted[i] = cp.eng.Now()
	}
	cp.sched.Submit(i)
}

// onSchedDone places instance i: warm instances warm-start, pod followers
// wait for their leader's image, leaders enter the build queue.
func (cp *controlPlane) onSchedDone(i int32) {
	ib := cp.ib
	end := cp.eng.Now()
	ib.schedDone[i] = end
	if ib.warm(int(i)) {
		ib.buildDone[i] = end
		ib.shipDone[i] = end
		cp.eng.EmitAfter(cp.cfg.WarmStartSec, evWarmDone, i)
		return
	}
	if cp.podSize == 1 {
		// A pod of one is its instance: it builds unless this is a retried
		// attempt — every retry follows a boot, and the first boot the ship —
		// whose image has been on its host since shipDone.
		if ib.faulty() && ib.retries[i]+ib.crashes[i]+ib.timeouts[i] > 0 {
			ib.buildDone[i] = ib.shipDone[i]
			cp.boot(i)
		} else {
			cp.build.Submit(i)
		}
		return
	}
	p := int(i) / cp.podSize
	leader := p*cp.podSize == int(i) || ib.allWarmBefore(p*cp.podSize, int(i))
	if cp.pods[p].shipped {
		ib.buildDone[i] = cp.pods[p].shippedAt
		ib.shipDone[i] = cp.pods[p].shippedAt
		cp.boot(i)
		return
	}
	if !leader {
		cp.pods[p].waiting = append(cp.pods[p].waiting, int(i))
		return
	}
	cp.build.Submit(i)
}

func (cp *controlPlane) onBuildDone(i int32) {
	cp.ib.buildDone[i] = cp.eng.Now()
	cp.ship.Submit(i)
}

func (cp *controlPlane) onShipDone(i int32) {
	cp.ib.shipDone[i] = cp.eng.Now()
	cp.boot(i)
	if cp.podSize > 1 {
		cp.podShipped(int(i) / cp.podSize)
	}
}

func (cp *controlPlane) boot(i int32) {
	cp.eng.EmitAfter(cp.cfg.BootSec, evBootDone, i)
}

// podShipped marks pod p's image available and boots every waiting
// follower.
func (cp *controlPlane) podShipped(p int) {
	pod := &cp.pods[p]
	pod.shipped = true
	pod.shippedAt = cp.eng.Now()
	for _, w := range pod.waiting {
		cp.ib.buildDone[w] = pod.shippedAt
		cp.ib.shipDone[w] = pod.shippedAt
		cp.boot(int32(w))
	}
	pod.waiting = pod.waiting[:0]
}

// onBootDone fires when instance i's host boot timer expires: the cold
// start either fails (back off and re-enter the scheduler, admission slot
// held) or execution begins.
func (cp *controlPlane) onBootDone(i int32) {
	if cp.cfg.StartFailureProb > 0 && cp.rng.Float64() < cp.cfg.StartFailureProb {
		ib := cp.ib
		ib.retries[i]++
		if cp.rec != nil {
			cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventStartRetry, AtSec: cp.eng.Now()})
		}
		if !cp.retryPol.Allow(int(ib.retries[i]), cp.eng.Now(), cp.maxRetries) {
			if cp.burstErr == nil {
				cp.burstErr = fmt.Errorf("%w: instance %d after %d attempts",
					ErrStartFailed, i, ib.retries[i])
			}
			cp.release()
			return
		}
		cp.backoffThenResubmit(i, int(ib.retries[i]))
		return
	}
	cp.finish(i)
}

// backoffThenResubmit re-enters the scheduler after the retry policy's
// delay for the given retry number (the admission slot stays held).
func (cp *controlPlane) backoffThenResubmit(i int32, retry int) {
	d := cp.retryPol.Delay(retry, cp.ib.prevDelay[i], cp.rng.Float64)
	cp.ib.prevDelay[i] = d
	if cp.rec != nil {
		cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventBackoff, AtSec: cp.eng.Now(), DurSec: d})
	}
	cp.eng.EmitAfter(d, evBackoffDone, i)
}

// failExec handles a crashed or timed-out attempt: retry within the
// policy's budget or fail the burst.
func (cp *controlPlane) failExec(i int32) {
	retry := int(cp.ib.crashes[i] + cp.ib.timeouts[i])
	if !cp.retryPol.Allow(retry, cp.eng.Now(), cp.maxRetries) {
		if cp.burstErr == nil {
			cp.burstErr = fmt.Errorf("%w: instance %d after %d failed attempts",
				ErrExecFailed, i, retry)
		}
		cp.release()
		return
	}
	cp.backoffThenResubmit(i, retry)
}

// finish begins instance i's execution attempt: sample straggling, crash,
// and timeout fates, then schedule whichever event strikes first. A
// completing attempt past the fleet's hedge threshold launches one
// speculative duplicate, resolved at schedule time (the simulator knows
// both durations) with only the winner's end event entering the queue.
func (cp *controlPlane) finish(i int32) {
	ib := cp.ib
	eng := cp.eng
	ib.start[i] = eng.Now()
	dur := ib.execs[i]
	if cp.cfg.StragglerProb > 0 && cp.rng.Float64() < cp.cfg.StragglerProb {
		dur *= cp.cfg.StragglerFactor
		ib.straggled[i]++
		if cp.rec != nil {
			cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventStraggle, AtSec: eng.Now(), DurSec: dur})
		}
	}
	// Sample this attempt's crash time; the attempt fails at whichever of
	// crash and timeout strikes first, billing the partial work. The sampled
	// offset is parked in the pendDur column for the fault handler — the
	// closure path captured it; recomputing it from the event timestamp
	// would round differently.
	crashAt := math.Inf(1)
	if cp.cfg.CrashRate > 0 {
		crashAt = cp.rng.ExpFloat64() / cp.cfg.CrashRate
	}
	timeoutAt := math.Inf(1)
	if cp.cfg.ExecTimeoutSec > 0 {
		timeoutAt = cp.cfg.ExecTimeoutSec
	}
	if crashAt < dur && crashAt <= timeoutAt {
		ib.pendDur[i] = crashAt
		eng.EmitAfter(crashAt, evCrash, i)
		return
	}
	if timeoutAt < dur {
		ib.pendDur[i] = timeoutAt
		eng.EmitAfter(timeoutAt, evTimeout, i)
		return
	}
	// The attempt will complete. If it is a straggler (past the fleet's
	// hedge threshold), launch one speculative duplicate with a fresh
	// execution draw; the first finisher wins and the loser is killed
	// (and billed) at that moment. Duplicates model a relaunch on a
	// healthy host: no straggler or crash injection applies to them.
	end := dur
	if dur > cp.hedgeThr {
		hedgeDur := ib.execs[i] * cp.rng.Jitter(cp.cfg.JitterRel)
		ib.flags[i] |= flagHedged
		if cp.hedgeThr+hedgeDur < dur {
			ib.flags[i] |= flagHedgeWon
			ib.hedgeExtraSec[i] = hedgeDur
			end = cp.hedgeThr + hedgeDur
		} else {
			ib.hedgeExtraSec[i] = dur - cp.hedgeThr
		}
		if cp.rec != nil {
			cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventHedgeLaunch, AtSec: eng.Now() + cp.hedgeThr})
		}
	}
	eng.EmitAfter(end, evEnd, i)
}

func (cp *controlPlane) onCrash(i int32) {
	ib := cp.ib
	ib.crashes[i]++
	ib.failedSec[i] += ib.pendDur[i]
	if cp.rec != nil {
		cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventCrash, AtSec: cp.eng.Now(), DurSec: ib.pendDur[i]})
	}
	cp.failExec(i)
}

func (cp *controlPlane) onTimeout(i int32) {
	ib := cp.ib
	ib.timeouts[i]++
	ib.failedSec[i] += ib.pendDur[i]
	if cp.rec != nil {
		cp.rec.Event(obs.Event{Instance: int(i), Kind: obs.EventTimeout, AtSec: cp.eng.Now(), DurSec: ib.pendDur[i]})
	}
	cp.failExec(i)
}

func (cp *controlPlane) onEnd(i int32) {
	ib := cp.ib
	ib.end[i] = cp.eng.Now()
	if cp.rec != nil && ib.flags[i]&flagHedged != 0 {
		kind := obs.EventHedgeWaste
		if ib.flags[i]&flagHedgeWon != 0 {
			kind = obs.EventHedgeWin
		}
		cp.rec.Event(obs.Event{Instance: int(i), Kind: kind, AtSec: cp.eng.Now(), DurSec: ib.hedgeExtraSec[i]})
		cp.rec.Span(obs.Span{
			Instance: int(i), Stage: obs.StageHedge,
			StartSec: ib.start[i] + cp.hedgeThr, EndSec: cp.eng.Now(),
		})
	}
	cp.release()
}

// Station service-time models: the paper's contention growth — each
// placement, build, and ship slows down with the work already done. Cached
// as method values on the pooled controlPlane so steady-state runs create
// no closures at all.
func (cp *controlPlane) schedService(int32) float64 {
	return cp.cfg.SchedBaseSec + cp.cfg.SchedPerBusySec*float64(cp.sched.Served)
}

func (cp *controlPlane) buildService(int32) float64 {
	return cp.cfg.BuildSec + cp.cfg.BuildGrowthSec*float64(cp.build.Served)
}

func (cp *controlPlane) shipService(int32) float64 {
	return cp.cfg.ShipSec + cp.cfg.ShipGrowthSec*float64(cp.ship.Served)
}

// runControlPlane simulates scheduling, image build, shipping, boot, and
// execution for a set of instances whose degree/warm state and execution
// durations are already fixed in the scratch's instance batch — by the
// tandem solver when nothing couples the instances beyond the three
// stations, on the typed event path otherwise. It fills in the batch's
// result columns in place, hands them to the Result, and returns it with the
// fault roll-up done, neither billed nor summarized: the caller's fold does
// both.
func runControlPlane(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
	ib := &sc.batch
	n := ib.n
	eng := sc.engine()
	cp := &sc.cp
	cp.eng = eng
	cp.cfg = cfg
	cp.ib = ib
	cp.rng = rng
	cp.rec = b.Recorder
	cp.limit = cfg.ConcurrencyLimit
	cp.running = 0
	cp.throttleQ = cp.throttleQ[:0]
	cp.throttlePos = 0
	cp.burstErr = nil

	podSize := cfg.PodSize
	if podSize < 1 {
		podSize = 1
	}
	cp.podSize = podSize

	cp.maxRetries = cfg.MaxStartRetries
	if cp.maxRetries == 0 {
		cp.maxRetries = 3
	}
	cp.retryPol = cfg.retryPolicy()
	// The hedge launch threshold is the configured quantile of the fleet's
	// planned execution durations — known up front in the simulator, so the
	// policy is deterministic. (A hedging Config is faulty: Run drew its
	// execution times inline.)
	cp.hedgeThr = math.Inf(1)
	if cfg.Hedge.Enabled() && n > 0 {
		cp.hedgeThr = cfg.Hedge.Threshold(ib.execs)
	}
	// Observability: a nil recorder costs only the guard checks in the
	// handlers; with one attached to a throttled run we additionally track
	// scheduler-entry times to emit queued/sched spans.
	if cp.admitted = nil; cp.rec != nil {
		cp.rec.BeginBurst(obs.BurstInfo{
			Platform: cfg.Name, Label: b.Label,
			Functions: b.Functions, Degree: b.Degree, Instances: n,
		})
		if cp.limit > 0 {
			cp.admitted = make([]float64, n)
			for i := range cp.admitted {
				cp.admitted[i] = -1
			}
		}
	}

	// A dice-free, unthrottled burst is solved without a single event, unless
	// the solver declines it (a tie only the engine's sequence numbers order).
	// It reads no execution time: Run's follower joins after it, either way.
	solved := cfg.tandem() && cp.solveTandem(b, sc.feed)
	sc.join()
	if solved && !sc.folded {
		// Execution is a timer from a start nothing else reads.
		for i, s := range ib.start {
			ib.end[i] = sim.TimerAt(s, ib.execs[i])
		}
	} else if !solved {
		if cp.pods = nil; podSize > 1 { // a pod of one is its instance
			cp.pods = sc.podStates((n + podSize - 1) / podSize)
		}
		cp.simulate(b)
		if cp.burstErr != nil {
			return nil, cp.burstErr
		}
	}

	res := &Result{
		Config:       cfg,
		Burst:        b,
		cols:         ib.instanceColumns,
		SchedBusySec: cp.sched.BusySeconds / float64(cfg.SchedServers),
		BuildBusySec: cp.build.BusySeconds / float64(cfg.BuildServers),
		ShipBusySec:  cp.ship.BusySeconds / float64(cfg.ShipServers),
	}
	c := &res.cols
	for i := range c.retries { // absent on a dice-free run: nothing to roll up
		res.StartRetries += int(c.retries[i])
		res.Crashes += int(c.crashes[i])
		res.Timeouts += int(c.timeouts[i])
		if c.flags[i]&flagHedged != 0 {
			res.HedgesLaunched++
		}
		if c.flags[i]&flagHedgeWon != 0 {
			res.HedgesWon++
		}
	}
	if cp.rec != nil {
		emitLifecycleSpans(cp.rec, c, b, cp.admitted)
	}
	return res, nil
}

// simulate runs the burst on the event engine: every instance requests
// placement at t=0 (or at its staggered arrival time), subject to
// account-level throttling, and the stations, timers and dice take it from
// there.
func (cp *controlPlane) simulate(b Burst) {
	eng, cfg, n := cp.eng, &cp.cfg, cp.ib.n
	eng.SetSink(cp)
	if cp.schedSvc == nil {
		cp.schedSvc = cp.schedService
		cp.buildSvc = cp.buildService
		cp.shipSvc = cp.shipService
	}
	cp.sched.Init(eng, cfg.SchedServers, evSchedDone, n, cp.schedSvc)
	cp.build.Init(eng, cfg.BuildServers, evBuildDone, n, cp.buildSvc)
	cp.ship.Init(eng, cfg.ShipServers, evShipDone, n, cp.shipSvc)
	if b.StaggerSec > 0 {
		for i := 0; i < n; i++ {
			eng.Emit(float64(i)*b.StaggerSec, evAdmit, int32(i))
		}
	} else {
		for i := 0; i < n; i++ {
			cp.admit(int32(i))
		}
	}
	eng.Run()
}
