package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Relations a dice-free burst must satisfy whatever computes it (ROADMAP
// item 2(b)/(c)). None of these compares against older code: each states
// something the paper's model implies and checks it on the Result alone.
// They are cheap enough to run on thousands of platforms because a dice-free
// burst costs a recurrence, not a simulation.

// invariantTrials is how many random platforms each relation is tried on.
func invariantTrials() int {
	if testing.Short() || raceEnabled {
		return 150
	}
	return 1500
}

// TestStageTimesScaleExactly: time has no preferred unit. Multiplying every
// stage time, the boot and warm-start times and the stagger by 2ᵏ — exact in
// binary floating point — multiplies every control-plane milestone by 2ᵏ,
// bit for bit; ties stay ties, so the run is solved (or falls back) alike.
func TestStageTimesScaleExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(173205))
	for trial := 0; trial < invariantTrials(); trial++ {
		cfg := tieProneConfig(rng.Intn)
		if trial%4 == 0 {
			cfg = Providers()[rng.Intn(3)]
			cfg.PodSize = rng.Intn(6)
		}
		b := Burst{Demand: tandemLight, Functions: 1 + rng.Intn(400), Degree: 1 + rng.Intn(4), Warm: rng.Intn(2) * rng.Intn(9), Seed: 7}
		if rng.Intn(3) == 0 {
			b.StaggerSec = tieProne[rng.Intn(len(tieProne))]
		}
		k := math.Ldexp(1, rng.Intn(21)-10)
		scaled, sb := cfg, b
		for _, f := range []*float64{
			&scaled.SchedBaseSec, &scaled.SchedPerBusySec, &scaled.BuildSec, &scaled.BuildGrowthSec,
			&scaled.ShipSec, &scaled.ShipGrowthSec, &scaled.BootSec, &scaled.WarmStartSec, &sb.StaggerSec,
		} {
			*f *= k
		}
		base, err := Run(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(scaled, sb)
		if err != nil {
			t.Fatal(err)
		}
		for name, cols := range map[string][2][]float64{
			"schedDone": {got.cols.schedDone, base.cols.schedDone}, "buildDone": {got.cols.buildDone, base.cols.buildDone},
			"shipDone": {got.cols.shipDone, base.cols.shipDone}, "start": {got.cols.start, base.cols.start},
		} {
			for i := range cols[0] {
				if want := cols[1][i] * k; math.Float64bits(cols[0][i]) != math.Float64bits(want) {
					t.Fatalf("trial %d (×%g, %+v on %+v): %s[%d] = %v, want %v·%g = %v", trial, k, b, cfg, name, i, cols[0][i], cols[1][i], k, want)
				}
			}
		}
		if got, want := got.ScalingTime(), base.ScalingTime()*k; got != want {
			t.Fatalf("trial %d: scaling time %v, want %v", trial, got, want)
		}
	}
}

// TestScalingSeesOnlyTheInstanceCount is the paper's Fig. 5b / Fig. 6 (Eq. 2
// is application-independent): C functions packed P to an instance scale
// exactly as ⌈C/P⌉ unpacked ones — every start instant, not only the last.
func TestScalingSeesOnlyTheInstanceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(223606))
	for trial := 0; trial < invariantTrials(); trial++ {
		cfg := Providers()[rng.Intn(3)]
		if trial%2 == 0 {
			cfg = tieProneConfig(rng.Intn)
		}
		c, p := 1+rng.Intn(2000), 1+rng.Intn(8)
		packed := Burst{Demand: tandemLight, Functions: c, Degree: p, Warm: rng.Intn(2) * rng.Intn(9), Seed: rng.Int63()}
		unpacked := packed
		unpacked.Functions, unpacked.Degree = packed.Instances(), 1
		a, err := Run(cfg, packed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, unpacked)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.ScalingTime()) != math.Float64bits(b.ScalingTime()) {
			t.Fatalf("trial %d: (C=%d, P=%d) scales in %v, (C=%d, P=1) in %v", trial, c, p, a.ScalingTime(), unpacked.Functions, b.ScalingTime())
		}
		for i := range a.cols.start {
			if math.Float64bits(a.cols.start[i]) != math.Float64bits(b.cols.start[i]) {
				t.Fatalf("trial %d: start[%d] = %v packed, %v unpacked", trial, i, a.cols.start[i], b.cols.start[i])
			}
		}
	}
}

// stageMonotone reports whether a stage passes earlier arrivals on as earlier
// completions: with one server a job's service time is fixed by its index,
// and with no growth by nothing at all. A multi-server stage whose service
// grows is not: a job that finds a free server has counted every completion
// before it, one that queued only those before its predecessor's.
func stageMonotone(servers int, growth float64) bool { return servers == 1 || growth == 0 }

// TestMoreServersNeverSlower is ROADMAP's relation with the condition it
// turned out to need: raising a stage's servers never lengthens scaling
// provided that stage is stageMonotone before the raise and every stage
// downstream of it after. Without the proviso the relation is false — see
// TestMoreServersCanBeSlower.
func TestMoreServersNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(264575))
	tried := [3]int{}
	for trial := 0; trial < 4*invariantTrials(); trial++ {
		cfg := tieProneConfig(rng.Intn)
		if trial%3 == 0 {
			cfg = Providers()[rng.Intn(3)]
		}
		// The stages from the raised one on, upstream first.
		stage := rng.Intn(3)
		servers := []*int{&cfg.SchedServers, &cfg.BuildServers, &cfg.ShipServers}[stage:]
		growth := []*float64{&cfg.SchedPerBusySec, &cfg.BuildGrowthSec, &cfg.ShipGrowthSec}[stage:]
		holds := true
		for k := range servers {
			if !stageMonotone(*servers[k], *growth[k]) && rng.Intn(2) == 0 {
				*growth[k] = 0 // half the time, make the proviso hold
			}
			holds = holds && stageMonotone(*servers[k], *growth[k])
		}
		if !holds {
			continue
		}
		more, add := cfg, 1+rng.Intn(3)
		*[]*int{&more.SchedServers, &more.BuildServers, &more.ShipServers}[stage] += add
		tried[stage]++
		b := Burst{Demand: tandemLight, Functions: 1 + rng.Intn(1500), Degree: 1, Warm: rng.Intn(2) * rng.Intn(20), Seed: 3}
		if rng.Intn(3) == 0 {
			b.StaggerSec = tieProne[rng.Intn(len(tieProne))]
		}
		base, err := Run(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(more, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.ScalingTime() > base.ScalingTime() {
			t.Fatalf("trial %d: %d more servers in stage %d lengthen scaling %v → %v (%+v on %+v)",
				trial, add, stage, base.ScalingTime(), got.ScalingTime(), b, cfg)
		}
	}
	for stage, n := range tried {
		if n < 20 {
			t.Errorf("stage %d was raised in only %d trials", stage, n)
		}
	}
}

// TestMoreServersCanBeSlower records the counter-example the property sweep
// turned up against the unconditional relation, on Lambda's own constants:
// three shipping channels → five lengthens a 107-instance burst by exactly
// one ShipGrowthSec. With five channels the last image finds one free and is
// charged for every shipment completed before it arrived; with three it
// queues, and is charged only for those completed before the one it waited
// on. It is the model (config.go: "ShipSec + ShipGrowthSec·(images already
// shipped)"), not a solver artefact: the evented path agrees bit for bit.
func TestMoreServersCanBeSlower(t *testing.T) {
	cfg := AWSLambda()
	cfg.SchedServers, cfg.BuildServers, cfg.ShipServers = 4, 73, 3
	more := cfg
	more.ShipServers = 5
	b := Burst{Demand: tandemLight, Functions: 107, Degree: 1, Warm: 15, Seed: 1}
	scaling := func(cfg Config) float64 {
		t.Helper()
		res, err := Run(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		evented, err := Run(forcedEvented(cfg, b.Instances()), b)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBits(t, fmt.Sprintf("%d shipping channels", cfg.ShipServers), res, evented)
		return res.ScalingTime()
	}
	three, five := scaling(cfg), scaling(more)
	if !(five > three) || math.Abs(five-three-cfg.ShipGrowthSec) > 1e-12 {
		t.Errorf("scaling %v with 3 channels, %v with 5: want the second longer by ShipGrowthSec = %g", three, five, cfg.ShipGrowthSec)
	}
}

// TestSchedulerClosedForm is ROADMAP 2(c)'s first step: with one scheduler
// and simultaneous arrival, placement k completes at
// (k+1)·base + per·k(k+1)/2 — Eq. 2's quadratic, read off the Config. The
// recurrence accumulates one rounding per placement, so agreement is held to
// a relative 2⁻⁵² per term summed.
func TestSchedulerClosedForm(t *testing.T) {
	for _, cfg := range Providers() {
		if cfg.SchedServers != 1 {
			t.Fatalf("%s: the closed form is for one scheduler, the preset has %d", cfg.Name, cfg.SchedServers)
		}
		const n = 200_000
		res, err := Run(cfg, Burst{Demand: tandemLight, Functions: n, Degree: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range res.cols.schedDone {
			kf := float64(k)
			want := (kf+1)*cfg.SchedBaseSec + cfg.SchedPerBusySec*kf*(kf+1)/2
			if tol := (kf + 2) * 0x1p-52 * want; math.Abs(got-want) > tol {
				t.Fatalf("%s: schedDone[%d] = %v, closed form %v (off by %g, tolerance %g)", cfg.Name, k, got, want, got-want, tol)
			}
		}
	}
}
