package platform

import (
	"context"
	"fmt"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Heterogeneous packing: the extension sketched in the paper's Sec. 5
// discussion ("packing functions of different characteristics"). A
// MixedBurst spawns instances whose resident functions may come from
// different applications; everything else — control plane, billing rules,
// metrics — is shared with the homogeneous path.

// Bin is one instance's resident function set.
type Bin struct {
	Demands []interfere.Demand
}

// Degree is the number of functions packed in the bin.
func (b Bin) Degree() int { return len(b.Demands) }

// MixedBurst is a concurrent invocation wave of pre-binned instances.
type MixedBurst struct {
	Bins []Bin
	// Warm instances (a prefix of Bins) skip build, ship, and boot.
	Warm int
	// StaggerSec spaces out invocations as in Burst.
	StaggerSec float64
	// Seed drives execution-time jitter.
	Seed int64

	// Recorder receives event-level observability records; nil disables
	// observability at zero cost (see internal/obs).
	Recorder obs.Recorder
	// Label names the burst in exported traces; may be empty.
	Label string
}

// Functions is the total logical function count across bins.
func (m MixedBurst) Functions() int {
	n := 0
	for _, b := range m.Bins {
		n += b.Degree()
	}
	return n
}

// Validate reports an error for malformed mixed bursts.
func (m MixedBurst) Validate(shape interfere.Shape) error {
	if len(m.Bins) == 0 {
		return fmt.Errorf("platform: mixed burst with no bins")
	}
	if m.Warm < 0 {
		return fmt.Errorf("platform: negative warm count %d", m.Warm)
	}
	if m.StaggerSec < 0 {
		return fmt.Errorf("platform: negative stagger %g", m.StaggerSec)
	}
	if !stats.FiniteNonNeg(m.StaggerSec) {
		return fmt.Errorf("platform: non-finite stagger %g", m.StaggerSec)
	}
	for i, b := range m.Bins {
		if err := shape.ValidateMixed(b.Demands); err != nil {
			return fmt.Errorf("platform: bin %d: %w", i, err)
		}
	}
	return nil
}

// RunMixed simulates a heterogeneous burst. The returned Result's Burst
// field carries only the total function count (Degree is 0: there is no
// single packing degree); Result.Bins holds the composition.
func RunMixed(cfg Config, m MixedBurst) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(cfg.Shape); err != nil {
		return nil, err
	}
	n := len(m.Bins)
	sc := newRunScratch(n, cfg.faulty())
	defer sc.release()
	rng := sc.stream(m.Seed, hashName(cfg.Name)^0x6d69786564) // "mixed"
	ib := &sc.batch

	// Per-bin preparation — the interference model over the bin's demand mix
	// and the same-demand billing groups — is a pure function of the bin, so
	// it fans out across GOMAXPROCS workers. Everything order-sensitive (the
	// platform-limit check with its bin index, the jitter draws on the
	// burst's single sequential stream) happens in the ordered fold below,
	// keeping the result byte-identical for every worker count.
	type binPrep struct {
		base   float64
		groups []demandGroup
	}
	prep := func(i int) binPrep {
		return binPrep{
			base:   interfere.ExecSecondsMixed(m.Bins[i].Demands, cfg.Shape),
			groups: groupDemands(m.Bins[i].Demands),
		}
	}
	var preps []binPrep
	if parallel.WorkerCount(0) == 1 || n == 1 {
		preps = make([]binPrep, n)
		for i := range preps {
			preps[i] = prep(i)
		}
	} else {
		var err error
		preps, err = parallel.Map(context.Background(), n,
			func(_ context.Context, i int) (binPrep, error) { return prep(i), nil })
		if err != nil {
			return nil, err
		}
	}
	for i, bin := range m.Bins {
		if preps[i].base > cfg.MaxExecSec {
			return nil, fmt.Errorf("%w: bin %d needs %.1fs > %.0fs on %s",
				ErrExecLimit, i, preps[i].base, cfg.MaxExecSec, cfg.Name)
		}
		ib.execs[i] = preps[i].base * rng.Jitter(cfg.JitterRel)
		ib.degree[i] = int32(bin.Degree())
		if i < m.Warm {
			ib.flags[i] |= flagWarm
		}
	}

	pseudo := Burst{
		Functions: m.Functions(), Degree: 0, Warm: m.Warm,
		StaggerSec: m.StaggerSec, Seed: m.Seed,
		Recorder: m.Recorder, Label: m.Label,
	}
	res, err := runCP(cfg, pseudo, sc, rng)
	if err != nil {
		return nil, err
	}
	res.Bins = m.Bins
	res.fold(true, func(i int) []demandGroup { return preps[i].groups })
	return res, nil
}

// groupDemands collapses a bin's members into same-demand groups so billing
// can apply shared-input and shuffle-locality rules per application.
func groupDemands(ds []interfere.Demand) []demandGroup {
	var groups []demandGroup
outer:
	for _, d := range ds {
		for i := range groups {
			if groups[i].d == d {
				groups[i].n++
				continue outer
			}
		}
		groups = append(groups, demandGroup{d: d, n: 1})
	}
	return groups
}
