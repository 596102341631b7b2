package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// MeasureExecCall implements ConcurrentMeasurer: the call-th probe of a
// probe train, as a pure function of (degree, call) — safe to run from any
// goroutine in any order. The probe seed is exactly the one the call-th
// sequential MeasureExec would have drawn, so the concurrent fan-out is
// bit-identical to the sequential train.
func (s *SimMeasurer) MeasureExecCall(degree, call int) (float64, float64, error) {
	return s.execProbe(degree, s.calls+int64(call))
}

// AdvanceCalls implements ConcurrentMeasurer: after a fanned-out probe
// train, the call counter catches up to where the sequential train would
// have left it, keeping later direct MeasureExec calls (the ablation
// drivers' truth probes) on the historical seed schedule.
func (s *SimMeasurer) AdvanceCalls(n int) { s.calls += int64(n) }

// execProbe runs one interference probe with the seed schedule shared by
// the sequential and concurrent probe paths.
func (s *SimMeasurer) execProbe(degree int, call int64) (float64, float64, error) {
	res, err := platform.Run(s.Config, platform.Burst{
		Demand:    s.Demand,
		Functions: degree,
		Degree:    degree,
		Seed:      s.Seed + int64(degree) + 7907*call,
	})
	if errors.Is(err, platform.ErrExecLimit) {
		return 0, 0, fmt.Errorf("%w: %v", ErrDegreeInfeasible, err)
	}
	if err != nil {
		return 0, 0, err
	}
	return res.MeanExecSeconds(), res.StorageUSD + res.RequestUSD, nil
}

// LastProbeStorageUSD implements CostMeasurer: the non-compute bill of the
// most recent interference probe.
func (s *SimMeasurer) LastProbeStorageUSD() float64 { return s.lastStorageUSD }

// nopDemand is the trivial function used for scaling probes: near-zero
// work, minimal memory.
func nopDemand() interfere.Demand {
	return interfere.Demand{CPUSeconds: 0.1, MemoryMB: 128}
}

// scalingKey is everything a scaling probe's result depends on. The whole
// Config is the key, not a chosen subset of its control-plane fields: it is
// comparable, and any field platform.Run reads now or later then splits
// keys by itself (sizes from WithMemory, fault dice, throttles).
type scalingKey struct {
	cfg       platform.Config
	seed      int64
	instances int
}

// scalingProbe is one stored result; once makes concurrent callers of a
// key share a single burst.
type scalingProbe struct {
	once sync.Once
	sec  float64
	err  error
}

// scalingStoreCap bounds the store (≈ 400 B per result, ≈ 1.6 MB full):
// /v1/joint's size grids and a library caller's seed sweep reach it with
// keys of their choosing. A full store is emptied rather than trimmed —
// clear is the one removal that also works on a key holding a NaN, which
// equals nothing, itself included — and its platforms pay their probes
// once more, as every build did before the store existed.
const scalingStoreCap = 4096

// scalingStore holds Eq. 2's measurements process-wide: the scaling model
// is application-independent (Sec. 2.2), so every SimMeasurer on one
// (Config, Seed) would simulate the same no-op bursts. scalingBursts counts
// the bursts actually run, for the tests.
var (
	scalingStore = struct {
		sync.Mutex
		m map[scalingKey]*scalingProbe
	}{m: map[scalingKey]*scalingProbe{}}
	scalingBursts atomic.Int64
)

var errScalingProbeAborted = errors.New("core: scaling probe did not complete")

// MeasureScaling implements Measurer by spawning a burst of no-op
// instances and timing until the last one starts — once per process for a
// given (Config, Seed, instances): later and concurrent callers get the
// stored seconds, bit for bit what their own burst would have returned. An
// error is returned to everyone waiting on the probe and not retained.
func (s *SimMeasurer) MeasureScaling(instances int) (float64, error) {
	key := scalingKey{s.Config, s.Seed, instances}
	scalingStore.Lock()
	p := scalingStore.m[key]
	if p == nil {
		if len(scalingStore.m) >= scalingStoreCap {
			clear(scalingStore.m)
		}
		// Born aborted: if the simulator panics (a non-finite stage time),
		// whoever is waiting on this probe must not read a zero as a result.
		p = &scalingProbe{err: errScalingProbeAborted}
		scalingStore.m[key] = p
	}
	scalingStore.Unlock()
	p.once.Do(func() {
		defer func() {
			if p.err != nil { // not a result: an error or a panic leaves the store
				scalingStore.Lock()
				if scalingStore.m[key] == p {
					delete(scalingStore.m, key)
				}
				scalingStore.Unlock()
			}
		}()
		scalingBursts.Add(1)
		res, err := platform.Run(s.Config, platform.Burst{
			Demand:    nopDemand(),
			Functions: instances,
			Degree:    1,
			Seed:      s.Seed + int64(instances)*7919,
		})
		if p.err = err; err == nil {
			p.sec = res.ScalingTime()
		}
	})
	return p.sec, p.err
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
	if err := checkSizeGrid(sizesMB); err != nil {
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
