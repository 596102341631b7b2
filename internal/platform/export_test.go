package platform

import (
	"slices"
	"testing"
)

// Test-only windows for the external test package (platform_test), which
// exists because internal/funcx imports this one.

// TandemFallbacks reports how many gated bursts the tandem solver has handed
// back to the evented path since the process started.
func TandemFallbacks() int64 { return tandemFallbacks.Load() }

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// CheckStoreSequences runs FuzzStoreSequence's seeds below overlapDrawMin on
// cfg (store_fuzz_test.go); the followed ones run on the presets there.
func CheckStoreSequences(t *testing.T, cfg Config) {
	for _, seed := range storeSequenceSeeds {
		bursts := decodeStoreSequence(seed, &cfg)
		if !slices.ContainsFunc(bursts, func(s storeBurst) bool { return s.b.Instances() >= overlapDrawMin }) {
			checkStoreSequence(t, bursts)
		}
	}
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
	c := r.resolved()
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
