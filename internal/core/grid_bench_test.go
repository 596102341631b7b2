package core

import (
	"testing"
)

// benchGrid is a 5-size Lambda-like grid with per-size interference (more
// CPU share → weaker α) and per-size expense rates, MaxDegree 40 at every
// size — 200 (P, mem) cells.
func benchGrid() GridModels {
	scaling := ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1}
	alphas := []float64{0.61, 0.48, 0.39, 0.34, 0.30}
	g := GridModels{}
	for i, alpha := range alphas {
		mem := float64(2048 * (i + 1))
		g.Sizes = append(g.Sizes, SizeModels{MemMB: mem, Models: Models{
			ET:                 ETModel{MfuncGB: 0.5, Alpha: alpha, Intercept: 2},
			Scaling:            scaling,
			RatePerInstanceSec: mem / 1024 * 0.0000166667,
			MaxDegree:          40,
		}})
	}
	return g
}

// BenchmarkGridTableBuild times the one-off cost a cache miss pays: K
// DegreeTables.
func BenchmarkGridTableBuild(b *testing.B) {
	g := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := newGridTable(g, 5000)
		if len(t.sizes) != len(g.Sizes) {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkGridArgmin times the Eq. 7 scan over every (P, mem) cell of a warm
// table at the 95th-percentile service objective.
func BenchmarkGridArgmin(b *testing.B) {
	t := newGridTable(benchGrid(), 5000)
	w := Balanced()
	for i := range t.sizes {
		t.Size(i).quantile(95) // warm the lazy quantile columns once per size
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		si, deg := t.argminJoint(95, 1, w)
		if deg < 1 || si < 0 {
			b.Fatal("bad argmin")
		}
	}
}

// BenchmarkGridQoSSearch times the full Eq. 9 weight search over the grid.
// The bound sits just above the tightest achievable tail so the search walks
// deep into the weight grid.
func BenchmarkGridQoSSearch(b *testing.B) {
	t := newGridTable(benchGrid(), 5000)
	tightest, _ := t.jointBaselines(95, 1)
	qos := tightest * 1.02
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qosSearchJoint(t, qos, 95, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
