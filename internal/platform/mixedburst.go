package platform

import (
	"fmt"
	"slices"

	"repro/internal/interfere"
	"repro/internal/obs"
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
	sc := newRunScratch(&cfg, n, m.Warm, m.StaggerSec)
	defer sc.release()
	rng := sc.stream(m.Seed, hashName(cfg.Name)^0x6d69786564) // "mixed"
	ib := &sc.batch

	// Per-bin preparation — the interference model over the bin's demand mix
	// and the same-demand billing groups — is a pure function of the bin's
	// demands, so a bin equal to its predecessor reuses its prep (packed
	// plans repeat one composition across most bins).
	groups := make([][]demandGroup, n)
	var base float64
	for i, bin := range m.Bins {
		if i == 0 || !slices.Equal(bin.Demands, m.Bins[i-1].Demands) {
			base = interfere.ExecSecondsMixed(bin.Demands, cfg.Shape)
			groups[i] = groupDemands(bin.Demands)
		} else {
			groups[i] = groups[i-1]
		}
		if base > cfg.MaxExecSec {
			return nil, fmt.Errorf("%w: bin %d needs %.1fs > %.0fs on %s",
				ErrExecLimit, i, base, cfg.MaxExecSec, cfg.Name)
		}
		ib.execs[i] = base * rng.Jitter(cfg.JitterRel)
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
	res.fold(true, func(i int) []demandGroup { return groups[i] })
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
