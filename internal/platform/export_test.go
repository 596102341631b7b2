package platform

import (
	"math/rand"
	"testing"
)

// Test-only windows for the external test package (platform_test), which
// exists because internal/funcx imports this one.

// TandemFallbacks reports how many gated bursts the tandem solver has handed
// back to the evented path since the process started.
func TandemFallbacks() int64 { return tandemFallbacks.Load() }

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// CheckStoreStates runs a Run, a RunMixed and a RunSharded burst on cfg from
// every state the schedule and bill stores can be in, requires each to be the
// burst forced through the event engine, and reports whether they stored
// anything (store_test.go).
func CheckStoreStates(t *testing.T, cfg Config, seed int64) (stored bool) {
	defer resetStores()
	return checkStoreStates(t, cfg, rand.New(rand.NewSource(seed)))
}

// Readings only tests take of a Result: production reads the quantiles it
// needs in one ServiceTimeAtQuantiles pass and the stage columns directly.

// ServiceTimeAtQuantile is the time until the first q% of instances have
// finished, measured from the first start (q=95 is the paper's "tail",
// q=50 its "median" service time).
func (r *Result) ServiceTimeAtQuantile(q float64) float64 {
	return r.ServiceTimeAtQuantiles(q)[0]
}

// StageBreakdown decomposes the scaling time along the critical path of the
// last instance to start: time in scheduling, image build, shipping, and
// boot. The four components sum to ScalingTime (paper Fig. 2).
func (r *Result) StageBreakdown() (sched, build, ship, boot float64) {
	c := &r.cols
	if c.n == 0 {
		return 0, 0, 0, 0
	}
	// >= from a zero start: ties go to the highest index.
	last, lastStart := 0, 0.0
	for i, s := range c.start {
		if s >= lastStart {
			last, lastStart = i, s
		}
	}
	return c.schedDone[last],
		c.buildDone[last] - c.schedDone[last],
		c.shipDone[last] - c.buildDone[last],
		c.start[last] - c.shipDone[last]
}

// ExecSeconds is the billed execution duration of the instance's winning
// copy (failed attempts and hedge duplicates are accounted separately in
// FailedSec and HedgeExtraSec).
func (t Timeline) ExecSeconds() float64 { return t.End - t.Start }
