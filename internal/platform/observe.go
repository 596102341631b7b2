package platform

import "repro/internal/obs"

// emitLifecycleSpans converts the finished columns into per-instance
// lifecycle stage spans, in instance order (deterministic for golden tests).
// Instance i arrives at the platform at i staggers (t=0 for a simultaneous
// burst). admitted is its first scheduler entry,
// later than arrival only under account-level throttling; nil means on
// arrival.
//
// The spans tile each instance's critical path exactly as
// Result.StageBreakdown slices it: queued (arrival → scheduler),
// sched (scheduler → placement), build, ship, and boot (ship-done →
// execution start), then exec (start → end). Zero-length spans (warm
// instances skip build and ship; unthrottled instances skip queued) are
// omitted. For instances that survived start retries the sched milestone is
// the *last* pass's placement, so the boot span absorbs the retry loops —
// the per-attempt story is in the live fault events, not the spans.
func emitLifecycleSpans(rec obs.Recorder, c *instanceColumns, b Burst, admitted []float64) {
	emit := func(i int, st obs.Stage, start, end float64) {
		if end > start {
			rec.Span(obs.Span{Instance: i, Stage: st, StartSec: start, EndSec: end})
		}
	}
	stagger := max(b.StaggerSec, 0) // −0 becomes +0, so no arrival is −0
	for i := 0; i < c.n; i++ {
		arrive := float64(i) * stagger
		entered := arrive
		if admitted != nil {
			entered = admitted[i]
		}
		emit(i, obs.StageQueued, arrive, entered)
		emit(i, obs.StageSched, entered, c.schedDone[i])
		emit(i, obs.StageBuild, c.schedDone[i], c.buildDone[i])
		emit(i, obs.StageShip, c.buildDone[i], c.shipDone[i])
		// A retried instance's last placement can postdate its pod's
		// (unchanged) ship milestone; clamp so the boot span never starts
		// before the work it follows.
		bootStart := c.shipDone[i]
		if c.schedDone[i] > bootStart {
			bootStart = c.schedDone[i]
		}
		emit(i, obs.StageBoot, bootStart, c.start[i])
		emit(i, obs.StageExec, c.start[i], c.end[i])
	}
}
