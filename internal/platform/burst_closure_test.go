package platform

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ownMilestones gives a run inside the schedule store's gate all four
// milestone columns, of its own: a planned batch has start alone, and on a
// hit the store's, so a control plane that writes them leaves the store as it
// was.
func (sc *runScratch) ownMilestones() {
	if sc.plan.on {
		c := &sc.batch.instanceColumns
		c.withMilestones()
		c.start = make([]float64, c.n)
	}
}

// runControlPlaneClosure is the closure-based control plane the typed
// dispatcher (dispatch.go) replaced, retained VERBATIM as a frozen oracle —
// the same pattern as the retained quadratic planner in
// core/table_equiv_test.go. The typed path
// must reproduce its Results and recorder traces byte for byte; the
// differential tests in typed_equiv_test.go swap it in through the runCP
// hook. Only these mechanical edits were made:
//
//   - the function was renamed;
//   - engine construction goes through sc.engine() (the pooled engine);
//   - the epilogue below eng.Run() hands the batch's columns to the Result
//     the way runControlPlane does — the fault roll-up there stays row-wise,
//     over the materialized timelines, so the typed path's column fold is
//     checked against it too;
//   - the arrival-time array is gone: emitLifecycleSpans derives an
//     instance's arrival from the burst, as the typed path does;
//   - closures are scheduled through the test adapter clo (closure_test.go)
//     where they were eng.At and eng.After;
//   - the stations are closure_test.go's copy of the closure station where
//     they were sim.NewStation;
//   - a staggered arrival is i·StaggerSec, without the constant offset only
//     sharded cells used to set;
//   - the retry budget and policy are read from Config.Retry, where they
//     were Config.MaxStartRetries and the retryPolicy() mapping of
//     Config.RetryDelaySec onto a fixed backoff (the two fields are gone;
//     the zero Retry is the same fixed, zero-delay, three-retry policy);
//   - a run inside the schedule store's gate (store.go) first gets
//     milestone columns of its own: the oracle writes every column, a
//     planned batch has start alone, and a stored one is read-only.
//
// Do not "improve" this function; it is a specification, not product code.

func runControlPlaneClosure(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
	sc.ownMilestones()
	ib := &sc.batch
	n := ib.n
	execs := ib.execs
	eng := sc.engine()
	clo := newClosures(eng)
	sched := newStation(clo, cfg.SchedServers)
	buildSt := newStation(clo, cfg.BuildServers)
	shipSt := newStation(clo, cfg.ShipServers)

	// Observability: a nil recorder costs only the guard checks below; with
	// one attached we additionally track scheduler-entry times (they are not
	// part of Timeline) to emit queued/sched spans.
	rec := b.Recorder
	var admitted []float64
	if rec != nil {
		rec.BeginBurst(obs.BurstInfo{
			Platform: cfg.Name, Label: b.Label,
			Functions: b.Functions, Degree: b.Degree, Instances: n,
		})
		admitted = make([]float64, n)
		for i := range admitted {
			admitted[i] = -1
		}
	}

	podSize := cfg.PodSize
	if podSize < 1 {
		podSize = 1
	}
	pods := sc.podStates((n + podSize - 1) / podSize)

	maxRetries := cfg.Retry.MaxAttempts
	if maxRetries == 0 {
		maxRetries = 3
	}
	retryPol := cfg.Retry
	// prevDelay feeds the decorrelated-jitter schedule; per instance so
	// parallel retry chains stay independent.
	prevDelay := ib.prevDelay
	// The hedge launch threshold is the configured quantile of the fleet's
	// planned execution durations — known up front in the simulator, so the
	// policy is deterministic.
	hedgeThr := math.Inf(1)
	if cfg.Hedge.Enabled() && n > 0 {
		hedgeThr = cfg.Hedge.Threshold(execs)
	}
	var burstErr error
	var submitSched func(i int)

	// Account-level throttling: at most ConcurrencyLimit instances may be
	// admitted (scheduled or running) at once; the rest wait FIFO for a
	// running instance to finish.
	var running int
	var throttleQ []int
	release := func() {
		running--
		if len(throttleQ) > 0 {
			next := throttleQ[0]
			throttleQ = throttleQ[1:]
			running++
			submitSched(next)
		}
	}
	admit := func(i int) {
		if cfg.ConcurrencyLimit > 0 && running >= cfg.ConcurrencyLimit {
			throttleQ = append(throttleQ, i)
			return
		}
		running++
		submitSched(i)
	}

	// backoffThenResubmit re-enters the scheduler after the retry policy's
	// delay for the given retry number (the admission slot stays held).
	backoffThenResubmit := func(i, retry int) {
		d := retryPol.Delay(retry, prevDelay[i], rng.Float64)
		prevDelay[i] = d
		if rec != nil {
			rec.Event(obs.Event{Instance: i, Kind: obs.EventBackoff, AtSec: eng.Now(), DurSec: d})
		}
		clo.After(d, func() { submitSched(i) })
	}
	// failExec handles a crashed or timed-out attempt: retry within the
	// policy's budget or fail the burst.
	failExec := func(i int) {
		retry := int(ib.crashes[i] + ib.timeouts[i])
		if !retryPol.Allow(retry, eng.Now(), maxRetries) {
			if burstErr == nil {
				burstErr = fmt.Errorf("%w: instance %d after %d failed attempts",
					ErrExecFailed, i, retry)
			}
			release()
			return
		}
		backoffThenResubmit(i, retry)
	}
	finish := func(i int) {
		ib.start[i] = eng.Now()
		dur := execs[i]
		if cfg.StragglerProb > 0 && rng.Float64() < cfg.StragglerProb {
			dur *= cfg.StragglerFactor
			ib.straggled[i]++
			if rec != nil {
				rec.Event(obs.Event{Instance: i, Kind: obs.EventStraggle, AtSec: eng.Now(), DurSec: dur})
			}
		}
		// Sample this attempt's crash time; the attempt fails at whichever
		// of crash and timeout strikes first, billing the partial work.
		crashAt := math.Inf(1)
		if cfg.CrashRate > 0 {
			crashAt = rng.ExpFloat64() / cfg.CrashRate
		}
		timeoutAt := math.Inf(1)
		if cfg.ExecTimeoutSec > 0 {
			timeoutAt = cfg.ExecTimeoutSec
		}
		if crashAt < dur && crashAt <= timeoutAt {
			clo.After(crashAt, func() {
				ib.crashes[i]++
				ib.failedSec[i] += crashAt
				if rec != nil {
					rec.Event(obs.Event{Instance: i, Kind: obs.EventCrash, AtSec: eng.Now(), DurSec: crashAt})
				}
				failExec(i)
			})
			return
		}
		if timeoutAt < dur {
			clo.After(timeoutAt, func() {
				ib.timeouts[i]++
				ib.failedSec[i] += timeoutAt
				if rec != nil {
					rec.Event(obs.Event{Instance: i, Kind: obs.EventTimeout, AtSec: eng.Now(), DurSec: timeoutAt})
				}
				failExec(i)
			})
			return
		}
		// The attempt will complete. If it is a straggler (past the fleet's
		// hedge threshold), launch one speculative duplicate with a fresh
		// execution draw; the first finisher wins and the loser is killed
		// (and billed) at that moment. Duplicates model a relaunch on a
		// healthy host: no straggler or crash injection applies to them.
		end := dur
		if dur > hedgeThr {
			hedgeDur := execs[i] * rng.Jitter(cfg.JitterRel)
			ib.flags[i] |= flagHedged
			if hedgeThr+hedgeDur < dur {
				ib.flags[i] |= flagHedgeWon
				ib.hedgeExtraSec[i] = hedgeDur
				end = hedgeThr + hedgeDur
			} else {
				ib.hedgeExtraSec[i] = dur - hedgeThr
			}
			if rec != nil {
				rec.Event(obs.Event{Instance: i, Kind: obs.EventHedgeLaunch, AtSec: eng.Now() + hedgeThr})
			}
		}
		clo.After(end, func() {
			ib.end[i] = eng.Now()
			if rec != nil && ib.flags[i]&flagHedged != 0 {
				kind := obs.EventHedgeWaste
				if ib.flags[i]&flagHedgeWon != 0 {
					kind = obs.EventHedgeWin
				}
				rec.Event(obs.Event{Instance: i, Kind: kind, AtSec: eng.Now(), DurSec: ib.hedgeExtraSec[i]})
				rec.Span(obs.Span{
					Instance: i, Stage: obs.StageHedge,
					StartSec: ib.start[i] + hedgeThr, EndSec: eng.Now(),
				})
			}
			release()
		})
	}
	boot := func(i int) {
		clo.After(cfg.BootSec, func() {
			if cfg.StartFailureProb > 0 && rng.Float64() < cfg.StartFailureProb {
				// Cold start failed: back off and re-enter the scheduler
				// (the admission slot stays held through retries).
				ib.retries[i]++
				if rec != nil {
					rec.Event(obs.Event{Instance: i, Kind: obs.EventStartRetry, AtSec: eng.Now()})
				}
				if !retryPol.Allow(int(ib.retries[i]), eng.Now(), maxRetries) {
					if burstErr == nil {
						burstErr = fmt.Errorf("%w: instance %d after %d attempts",
							ErrStartFailed, i, ib.retries[i])
					}
					release()
					return
				}
				backoffThenResubmit(i, int(ib.retries[i]))
				return
			}
			finish(i)
		})
	}
	warmStart := func(i int) {
		clo.After(cfg.WarmStartSec, func() { finish(i) })
	}
	podShipped := func(p int) {
		pods[p].shipped = true
		pods[p].shippedAt = eng.Now()
		for _, w := range pods[p].waiting {
			ib.buildDone[w] = pods[p].shippedAt
			ib.shipDone[w] = pods[p].shippedAt
			boot(w)
		}
		pods[p].waiting = pods[p].waiting[:0]
	}

	submitSched = func(i int) {
		if rec != nil && admitted[i] < 0 {
			admitted[i] = eng.Now()
		}
		sched.Submit(
			func() float64 {
				return cfg.SchedBaseSec + cfg.SchedPerBusySec*float64(sched.Served)
			},
			func(_, end float64) {
				ib.schedDone[i] = end
				if ib.warm(i) {
					ib.buildDone[i] = end
					ib.shipDone[i] = end
					warmStart(i)
					return
				}
				p := i / podSize
				leader := p*podSize == i || ib.allWarmBefore(p*podSize, i)
				if pods[p].shipped {
					ib.buildDone[i] = pods[p].shippedAt
					ib.shipDone[i] = pods[p].shippedAt
					boot(i)
					return
				}
				if !leader {
					pods[p].waiting = append(pods[p].waiting, i)
					return
				}
				buildSt.Submit(
					func() float64 {
						return cfg.BuildSec + cfg.BuildGrowthSec*float64(buildSt.Served)
					},
					func(_, buildEnd float64) {
						ib.buildDone[i] = buildEnd
						shipSt.Submit(
							func() float64 {
								return cfg.ShipSec + cfg.ShipGrowthSec*float64(shipSt.Served)
							},
							func(_, shipEnd float64) {
								ib.shipDone[i] = shipEnd
								boot(i)
								podShipped(p)
							})
					})
			})
	}

	// Every instance requests placement at t=0 (or at its staggered arrival
	// time), subject to account-level throttling. The scheduler's search
	// cost grows with the number of placements already made — the paper's
	// "scheduling algorithm needs to search and find more places" effect.
	for i := 0; i < n; i++ {
		i := i
		if b.StaggerSec > 0 {
			clo.At(float64(i)*b.StaggerSec, func() { admit(i) })
		} else {
			admit(i)
		}
	}
	eng.Run()
	if burstErr != nil {
		return nil, burstErr
	}

	res := &Result{
		Config:       cfg,
		Burst:        b,
		cols:         ib.instanceColumns,
		SchedBusySec: sched.BusySeconds / float64(cfg.SchedServers),
		BuildBusySec: buildSt.BusySeconds / float64(cfg.BuildServers),
		ShipBusySec:  shipSt.BusySeconds / float64(cfg.ShipServers),
	}
	for _, t := range res.Timelines() {
		res.StartRetries += t.Retries
		res.Crashes += t.Crashes
		res.Timeouts += t.Timeouts
		if t.Hedged {
			res.HedgesLaunched++
		}
		if t.HedgeWon {
			res.HedgesWon++
		}
	}
	if rec != nil {
		emitLifecycleSpans(rec, &res.cols, b, admitted)
	}
	return res, nil
}
