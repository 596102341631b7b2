package platform

import (
	"sort"
	"testing"

	"repro/internal/workload"
)

// peakRunning is the most instances of res executing at one virtual instant,
// swept over the start/end intervals with ends before starts at ties.
func peakRunning(res *Result) int {
	type event struct {
		at    float64
		delta int
	}
	var evs []event
	for _, tl := range res.Timelines() {
		evs = append(evs, event{tl.Start, 1}, event{tl.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		return evs[i].at < evs[j].at || evs[i].at == evs[j].at && evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

func TestThrottlingCapsConcurrency(t *testing.T) {
	cfg := AWSLambda()
	cfg.ConcurrencyLimit = 100
	d := workload.StatelessCost{}.Demand()
	res, err := Run(cfg, Burst{Demand: d, Functions: 300, Degree: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// At no virtual instant may more than 100 instances be running.
	if peak := peakRunning(res); peak > 100 {
		t.Fatalf("throttle violated: %d instances ran concurrently", peak)
	}
	// Throttled waves must stretch total service well beyond the unlimited
	// case.
	unlimited, err := Run(AWSLambda(), Burst{Demand: d, Functions: 300, Degree: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServiceTime() <= unlimited.TotalServiceTime() {
		t.Fatalf("throttling should stretch service: %g vs %g",
			res.TotalServiceTime(), unlimited.TotalServiceTime())
	}
	// Every instance must still complete.
	for _, tl := range res.Timelines() {
		if tl.End <= tl.Start {
			t.Fatalf("instance %d never ran", tl.Index)
		}
	}
}

// TestPackingAvoidsThrottling demonstrates the extra benefit: packing keeps
// the instance count under the account limit, so the packed burst never
// throttles while the unpacked one serializes into waves.
func TestPackingAvoidsThrottling(t *testing.T) {
	cfg := AWSLambda()
	cfg.ConcurrencyLimit = 200
	d := workload.Video{}.Demand()
	const c = 1000
	unpacked, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: 8, Seed: 42}) // 125 ≤ 200 instances
	if err != nil {
		t.Fatal(err)
	}
	// Unpacked: 1000 functions through a 200-slot account = ≥5 waves of
	// ~100 s — service must exceed 400 s. Packed: one wave.
	if unpacked.TotalServiceTime() < 400 {
		t.Fatalf("unpacked burst should serialize into waves: %g", unpacked.TotalServiceTime())
	}
	if packed.TotalServiceTime() >= unpacked.TotalServiceTime()/2 {
		t.Fatalf("packing should dodge throttling: %g vs %g",
			packed.TotalServiceTime(), unpacked.TotalServiceTime())
	}
}

func TestThrottleValidation(t *testing.T) {
	cfg := AWSLambda()
	cfg.ConcurrencyLimit = -1
	if cfg.Validate() == nil {
		t.Fatal("negative limit accepted")
	}
}

// TestStaggerInteractsWithThrottle: staggered admission must still respect
// the account concurrency limit, and the two mechanisms compose — the last
// start is bounded below by the stagger schedule and stretched further by
// throttle waves.
func TestStaggerInteractsWithThrottle(t *testing.T) {
	d := workload.StatelessCost{}.Demand()
	const n, stagger = 300, 0.2
	b := Burst{Demand: d, Functions: n, Degree: 1, StaggerSec: stagger, Seed: 43}

	// Unthrottled staggered burst: instance k cannot start before its
	// arrival at k·stagger.
	free, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range free.Timelines() {
		if tl.Start < float64(tl.Index)*stagger {
			t.Fatalf("instance %d started %.2fs before its staggered arrival", tl.Index, float64(tl.Index)*stagger-tl.Start)
		}
	}
	if free.ScalingTime() < float64(n-1)*stagger {
		t.Fatalf("stagger floor violated: scaling %g < %g", free.ScalingTime(), float64(n-1)*stagger)
	}

	// Throttled + staggered: concurrency stays under the cap and service
	// stretches beyond the unthrottled staggered run.
	cfg := AWSLambda()
	cfg.ConcurrencyLimit = 50
	caped, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if peak := peakRunning(caped); peak > 50 {
		t.Fatalf("throttle violated under stagger: peak %d", peak)
	}
	for _, tl := range caped.Timelines() {
		if tl.End <= tl.Start {
			t.Fatalf("instance %d never ran", tl.Index)
		}
	}
	if caped.TotalServiceTime() <= free.TotalServiceTime() {
		t.Fatalf("throttle should stretch the staggered burst: %g vs %g",
			caped.TotalServiceTime(), free.TotalServiceTime())
	}
}
