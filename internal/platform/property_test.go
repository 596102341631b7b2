package platform

import (
	"testing"
	"testing/quick"

	"repro/internal/interfere"
)

// TestBurstInvariantsProperty fuzzes burst shapes against the platform's
// structural invariants: causality of every timeline, function-count
// conservation, non-negative billing, and scaling ≤ total service.
func TestBurstInvariantsProperty(t *testing.T) {
	cfg := AWSLambda()
	f := func(cRaw uint16, degRaw, warmRaw uint8, seed int16) bool {
		c := int(cRaw)%800 + 1
		deg := int(degRaw)%12 + 1
		warm := int(warmRaw) % (c/deg + 1)
		d := interfere.Demand{
			CPUSeconds: 20 + float64(degRaw%50),
			IOSeconds:  5 + float64(warmRaw%40),
			MemoryMB:   256,
			MemBWMBps:  1500,
			InputMB:    2,
			OutputMB:   1,
		}
		res, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: deg, Warm: warm, Seed: int64(seed)})
		if err != nil {
			return false
		}
		total := 0
		for _, tl := range res.Timelines() {
			total += tl.Degree
			if !(tl.SchedDone > 0 && tl.SchedDone <= tl.BuildDone &&
				tl.BuildDone <= tl.ShipDone && tl.ShipDone < tl.Start && tl.Start < tl.End) {
				return false
			}
		}
		if total != c {
			return false
		}
		if res.ExpenseUSD() <= 0 || res.ComputeUSD <= 0 {
			return false
		}
		if res.ScalingTime() > res.TotalServiceTime()+res.firstStart() {
			return false
		}
		med, tail, tot := res.ServiceTimeAtQuantile(50), res.ServiceTimeAtQuantile(95), res.TotalServiceTime()
		return med <= tail && tail <= tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedEqualsHomogeneousProperty fuzzes the equivalence of the two
// execution paths for homogeneous bins.
func TestMixedEqualsHomogeneousProperty(t *testing.T) {
	cfg := AWSLambda()
	cfg.JitterRel = 0
	f := func(cRaw, degRaw uint8, seed int16) bool {
		deg := int(degRaw)%6 + 1
		bins := int(cRaw)%40 + 1
		c := bins * deg
		d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
		homog, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: deg, Seed: int64(seed)})
		if err != nil {
			return false
		}
		mb := make([]Bin, bins)
		for i := range mb {
			for j := 0; j < deg; j++ {
				mb[i].Demands = append(mb[i].Demands, d)
			}
		}
		mixed, err := RunMixed(cfg, MixedBurst{Bins: mb, Seed: int64(seed)})
		if err != nil {
			return false
		}
		// The two paths compute the same quantities in different float
		// orders (pressure sums vs multiplications, billing grouping), so
		// equality holds only up to ulps.
		relClose := func(a, b float64) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d < 1e-12*a
		}
		return relClose(homog.TotalServiceTime(), mixed.TotalServiceTime()) &&
			relClose(homog.ExpenseUSD(), mixed.ExpenseUSD())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBillingAdditiveProperty: splitting one burst's functions across two
// bursts at the same degree bills the same total (no cross-instance
// coupling in the meter).
func TestBillingAdditiveProperty(t *testing.T) {
	cfg := AWSLambda()
	cfg.JitterRel = 0
	d := interfere.Demand{CPUSeconds: 25, IOSeconds: 15, MemoryMB: 256,
		MemBWMBps: 1000, InputMB: 3, OutputMB: 2, ShuffleFraction: 0.5}
	f := func(aRaw, bRaw uint8) bool {
		const deg = 4
		a := (int(aRaw)%20 + 1) * deg
		b := (int(bRaw)%20 + 1) * deg
		whole, err := Run(cfg, Burst{Demand: d, Functions: a + b, Degree: deg, Seed: 1})
		if err != nil {
			return false
		}
		pa, err := Run(cfg, Burst{Demand: d, Functions: a, Degree: deg, Seed: 1})
		if err != nil {
			return false
		}
		pb, err := Run(cfg, Burst{Demand: d, Functions: b, Degree: deg, Seed: 1})
		if err != nil {
			return false
		}
		diff := whole.ExpenseUSD() - (pa.ExpenseUSD() + pb.ExpenseUSD())
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*whole.ExpenseUSD()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
