package platform_test

import (
	"testing"

	"repro/internal/funcx"
	"repro/internal/interfere"
	"repro/internal/platform"
)

// TestTandemPresetsNeverFallBack pins the solver's reach: on the three
// commercial presets and FuncX, no burst from one instance to a million —
// plain, packed with a short last instance, warm-prefixed or staggered —
// meets a tie the stage recurrences cannot order. (The million-instance
// Lambda burst has a build completion and a placement at one instant,
// t ≈ 1.736 × 10⁷ s; a solver that gave up on first-level ties would fall
// back on every burst-1m op.)
func TestTandemPresetsNeverFallBack(t *testing.T) {
	d := interfere.Demand{CPUSeconds: 2, IOSeconds: 0.5, MemoryMB: 128, InputMB: 1, OutputMB: 1}
	sizes := []int{1, 40, 2_000, 100_000, 1_000_000}
	if testing.Short() || platform.RaceEnabled {
		sizes = sizes[:3]
	}
	for _, cfg := range append(platform.Providers(), funcx.Config()) {
		for _, c := range sizes {
			for name, b := range map[string]platform.Burst{
				"plain":     {Functions: c, Degree: 1},
				"packed":    {Functions: c, Degree: 7},
				"warm":      {Functions: c, Degree: 1, Warm: c/10 + 3},
				"staggered": {Functions: c, Degree: 1, StaggerSec: 1e-3},
			} {
				b.Demand, b.Seed = d, 1
				before := platform.TandemFallbacks()
				if _, err := platform.Run(cfg, b); err != nil {
					t.Fatalf("%s C=%d %s: %v", cfg.Name, c, name, err)
				}
				if n := platform.TandemFallbacks() - before; n != 0 {
					t.Errorf("%s C=%d %s: the solver fell back", cfg.Name, c, name)
				}
			}
		}
	}
}

// TestScheduleStorePresets runs FuzzStoreSequence's seed corpus below the
// follower's threshold on the presets and on FuncX, whose own pods the
// corpus then meets through the stores.
func TestScheduleStorePresets(t *testing.T) {
	for _, cfg := range append(platform.Providers(), funcx.Config()) {
		platform.CheckStoreSequences(t, cfg)
	}
}
