package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func noisyExpData(slope, intercept, noise float64, n int, seed int64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := float64(i) + 1
		xs = append(xs, x)
		ys = append(ys, math.Exp(slope*x+intercept+rng.NormFloat64()*noise))
	}
	return xs, ys
}

// TestExpFitBootstrapCoverage checks the statistical property that matters:
// across many noisy datasets, the 95% slope interval covers the true slope
// most of the time (a single dataset can legitimately miss).
func TestExpFitBootstrapCoverage(t *testing.T) {
	const slope, intercept = 0.12, 2.0
	const trials = 40
	covered := 0
	for trial := 0; trial < trials; trial++ {
		xs, ys := noisyExpData(slope, intercept, 0.02, 20, int64(trial))
		m, sCI, iCI, err := ExpFitBootstrap(xs, ys, 200, 0.95, int64(trial)+1000)
		if err != nil {
			t.Fatal(err)
		}
		if sCI.Lo >= sCI.Hi || iCI.Lo >= iCI.Hi {
			t.Fatalf("degenerate intervals %v %v", sCI, iCI)
		}
		if !sCI.Contains(m.Slope) {
			t.Fatal("interval must contain its own point estimate")
		}
		if sCI.Hi-sCI.Lo > 0.05 {
			t.Fatalf("slope CI too wide: %v", sCI)
		}
		if sCI.Contains(slope) {
			covered++
		}
	}
	// Nominal 95%; demand ≥ 80% to keep the test robust.
	if covered < trials*8/10 {
		t.Fatalf("slope coverage %d/%d, want ≥%d", covered, trials, trials*8/10)
	}
}

func TestExpFitBootstrapNoiselessIsTight(t *testing.T) {
	xs, ys := noisyExpData(0.2, 1, 0, 10, 4)
	_, sCI, _, err := ExpFitBootstrap(xs, ys, 100, 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sCI.Hi-sCI.Lo > 1e-9 {
		t.Fatalf("noiseless CI should collapse: %v", sCI)
	}
}

func TestPolyFitBootstrapCoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs, ys []float64
	truth := Poly{-2, 0.05, 3e-5}
	for i := 0; i < 25; i++ {
		x := float64(i) * 200
		xs = append(xs, x)
		ys = append(ys, truth.At(x)+rng.NormFloat64()*0.5)
	}
	p, cis, err := PolyFitBootstrap(xs, ys, 2, 400, 0.95, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cis) != 3 {
		t.Fatalf("got %d intervals", len(cis))
	}
	for c, ci := range cis {
		if !ci.Contains(truth[c]) {
			t.Fatalf("coefficient %d CI %v misses truth %g (fit %g)", c, ci, truth[c], p[c])
		}
	}
}

func TestBootstrapValidation(t *testing.T) {
	xs, ys := noisyExpData(0.1, 1, 0.01, 10, 1)
	if _, _, _, err := ExpFitBootstrap(xs, ys, 5, 0.95, 1); err == nil {
		t.Fatal("too few iterations accepted")
	}
	if _, _, _, err := ExpFitBootstrap(xs, ys, 100, 1.5, 1); err == nil {
		t.Fatal("bad confidence accepted")
	}
	if _, _, err := PolyFitBootstrap(xs, ys, 2, 5, 0.95, 1); err == nil {
		t.Fatal("too few iterations accepted")
	}
	if _, _, err := PolyFitBootstrap(xs, ys, 2, 100, 0, 1); err == nil {
		t.Fatal("bad confidence accepted")
	}
}

func TestCIHelpers(t *testing.T) {
	ci := CI{Lo: 1, Hi: 2}
	if !ci.Contains(1.5) || ci.Contains(0.5) || ci.Contains(2.5) {
		t.Fatal("Contains wrong")
	}
	if ci.String() == "" {
		t.Fatal("empty string")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	approx(t, percentileSorted(xs, 0), 15, 1e-12, "p0")
	approx(t, percentileSorted(xs, 100), 50, 1e-12, "p100")
	approx(t, percentileSorted(xs, 50), 35, 1e-12, "median odd")
	approx(t, percentileSorted(xs, 25), 20, 1e-12, "p25 exact rank")
	// Interpolated: rank = 0.4*4 = 1.6 → 20 + 0.6*(35-20) = 29.
	approx(t, percentileSorted(xs, 40), 29, 1e-12, "p40 interpolated")
	approx(t, percentileSorted([]float64{1, 2, 3, 4}, 50), 2.5, 1e-12, "median even")
}

// Property: percentiles are monotone in q and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		size := int(n)%50 + 1
		sorted := make([]float64, size)
		for i := range sorted {
			sorted[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 100; q += 7 {
			p := percentileSorted(sorted, q)
			if p < prev-1e-9 || p < sorted[0]-1e-9 || p > sorted[size-1]+1e-9 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
