package core

import (
	"testing"
)

// benchGrid is a 5-size Lambda-like grid with per-size interference (more
// CPU share → weaker α) and per-size expense rates, MaxDegree 40 at every
// size — 200 (P, mem) cells, the regime the pruned argmin exists for.
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
// DegreeTables plus the per-size row minima the pruning uses.
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

// BenchmarkGridArgmin compares the pruned 2-D argmin against the exhaustive
// oracle on a warm table: the pruned scan skips whole memory sizes via the
// cached row lower bounds, so it should cost close to the 1-D argmin rather
// than K times it.
func BenchmarkGridArgmin(b *testing.B) {
	t := newGridTable(benchGrid(), 5000)
	w := Balanced()
	t.Size(0).quantile(95) // warm the lazy quantile columns once per size
	for i := 1; i < len(t.sizes); i++ {
		t.Size(i).quantile(95)
	}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			si, deg := t.argminJoint(95, 1, w)
			if deg < 1 || si < 0 {
				b.Fatal("bad argmin")
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			si, deg := t.argminJointExact(95, 1, w)
			if deg < 1 || si < 0 {
				b.Fatal("bad argmin")
			}
		}
	})
}

// BenchmarkGridQoSSearch compares the full Eq. 9 weight search over the
// grid: the production path (memoized argmins, prefix certificates, binary
// search, pruned argmin) against the naive left-to-right scan over
// exhaustive argmins. The bound sits just above the tightest achievable
// tail so the search walks deep into the weight grid.
func BenchmarkGridQoSSearch(b *testing.B) {
	t := newGridTable(benchGrid(), 5000)
	qos := t.bestServiceAt(95, 1) * 1.02
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := qosSearchJoint(t, qos, 95, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := naiveQoSJoint(t, qos, 95, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
}
