package core

import (
	"errors"
	"fmt"

	"repro/internal/interfere"
	"repro/internal/platform"
)

// SimMeasurer adapts the datacenter simulator to the Measurer interface:
// interference probes run one real instance of the application; scaling
// probes spawn bursts of no-op functions (scaling time is independent of
// the application, so no workload code is needed — Sec. 2.2).
type SimMeasurer struct {
	Config platform.Config
	Demand interfere.Demand
	Seed   int64

	calls int64 // distinct jitter per repeated probe of the same degree

	lastStorageUSD float64
}

var (
	_ Measurer           = (*SimMeasurer)(nil)
	_ ConcurrentMeasurer = (*SimMeasurer)(nil)
)

// MeasureExec implements Measurer by running a single instance packed at
// the given degree. A degree whose execution would exceed the platform's
// limit is reported as ErrDegreeInfeasible so BuildModels can lower
// P_max^deg.
func (s *SimMeasurer) MeasureExec(degree int) (float64, error) {
	s.calls++
	et, storage, err := s.execProbe(degree, s.calls)
	if err != nil {
		return 0, err
	}
	s.lastStorageUSD = storage
	return et, nil
}

// MeasureExecCall implements ConcurrentMeasurer: the probe the call-th
// MeasureExec after this point would run, without advancing the counter.
// core no longer calls it; ROADMAP item 2 deletes it.
func (s *SimMeasurer) MeasureExecCall(degree, call int) (float64, float64, error) {
	return s.execProbe(degree, s.calls+int64(call))
}

// AdvanceCalls implements ConcurrentMeasurer: it moves the call counter on
// as n MeasureExec calls would. core no longer calls it; ROADMAP item 2
// deletes it.
func (s *SimMeasurer) AdvanceCalls(n int) { s.calls += int64(n) }

// execProbe runs Eq. 1's probe, platform.ExecTime, with the seed of the
// call-th probe.
func (s *SimMeasurer) execProbe(degree int, call int64) (float64, float64, error) {
	et, fees, err := platform.ExecTime(s.Config, s.Demand, degree, s.Seed+int64(degree)+7907*call)
	if errors.Is(err, platform.ErrExecLimit) {
		return 0, 0, fmt.Errorf("%w: %v", ErrDegreeInfeasible, err)
	}
	return et, fees, err
}

// LastProbeStorageUSD implements CostMeasurer: the non-compute bill of the
// most recent interference probe.
func (s *SimMeasurer) LastProbeStorageUSD() float64 { return s.lastStorageUSD }

// MeasureScaling implements Measurer with Eq. 2's no-op probe,
// platform.ScalingTime: application-independent, so every SimMeasurer on a
// control plane shares its answers.
func (s *SimMeasurer) MeasureScaling(instances int) (float64, error) {
	return platform.ScalingTime(s.Config, s.Seed, instances)
}

// ProfileOptionsFor derives the standard ProfileOptions for an application
// demand on a platform: MaxDegree from the memory constraint, R from the
// billed memory and GB·second price.
func ProfileOptionsFor(cfg platform.Config, d interfere.Demand) ProfileOptions {
	return ProfileOptions{
		MaxDegree:          cfg.Shape.MaxDegree(d),
		MfuncGB:            d.MemoryMB / 1024,
		RatePerInstanceSec: cfg.MemoryGB() * cfg.GBSecondUSD,
	}
}

// GridProbesFor derives the per-size probing setups BuildGridModels needs
// for an application demand across platform memory sizes: each size resizes
// the platform with WithMemory (CPU share and memory bandwidth scale with
// purchased memory, exactly Lambda's coupling) and derives its own
// ProfileOptions there — per-size MaxDegree (fewer functions fit a smaller
// instance) and per-size expense rate (smaller instances bill less per
// second). Sizes must be strictly increasing and small enough that the
// demand still fits (MaxDegree ≥ 1).
func GridProbesFor(cfg platform.Config, d interfere.Demand, sizesMB []float64, seed int64) ([]SizeProbe, error) {
	if err := CheckSizeGrid(sizesMB); err != nil {
		return nil, err
	}
	probes := make([]SizeProbe, 0, len(sizesMB))
	for _, mb := range sizesMB {
		scfg, err := cfg.WithMemory(mb)
		if err != nil {
			return nil, fmt.Errorf("core: memory size %g MB: %w", mb, err)
		}
		opts := ProfileOptionsFor(scfg, d)
		if opts.MaxDegree < 1 {
			return nil, fmt.Errorf("core: memory size %g MB cannot fit the %g MB demand", mb, d.MemoryMB)
		}
		probes = append(probes, SizeProbe{
			MemMB: mb,
			Meas:  &SimMeasurer{Config: scfg, Demand: d, Seed: seed},
			Opts:  opts,
		})
	}
	return probes, nil
}
