package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 50); got != 3 {
		t.Fatalf("median = %g, want 3", got)
	}
	if got := Quantile(xs, 100); got != 5 {
		t.Fatalf("p100 = %g, want 5", got)
	}
	if got := Quantile(xs, 1); got != 1 {
		t.Fatalf("p1 = %g, want 1", got)
	}
	// Input must be untouched.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileIndexMatchesCeilRank(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for _, q := range []float64{1, 25, 50, 95, 99, 100} {
			want := int(math.Ceil(q/100*float64(n))) - 1
			if want < 0 {
				want = 0
			}
			if want >= n {
				want = n - 1
			}
			if got := QuantileIndex(n, q); got != want {
				t.Fatalf("QuantileIndex(%d, %g) = %d, want %d", n, q, got, want)
			}
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		med, tail, top := Quantile(xs, 50), Quantile(xs, 95), Quantile(xs, 100)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return med <= tail && tail <= top && top == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("quantile of empty data should panic")
		}
	}()
	Quantile(nil, 50)
}

// TestQuantileIndexClampsBeforeConverting: a percentile far outside (0, 100],
// ±Inf included, is a clamp, not an out-of-range float→int conversion.
func TestQuantileIndexClampsBeforeConverting(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		want int
	}{{math.Inf(1), 9}, {1e300, 9}, {100.0001, 9}, {math.Inf(-1), 0}, {-1e300, 0}, {0, 0}, {1e-300, 0}} {
		if got := QuantileIndex(10, tc.q); got != tc.want {
			t.Errorf("QuantileIndex(10, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestQuantileNaNRankPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Quantile":       func() { Quantile([]float64{1, 2}, math.NaN()) },
		"Quantiles":      func() { Quantiles([]float64{1, 2}, 50, math.NaN()) },
		"QuantileSorted": func() { QuantileSorted([]float64{1, 2}, math.NaN()) },
		"QuantileIndex":  func() { QuantileIndex(2, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at a NaN percentile did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestQuantileNaNDataOrdersFirst pins the NaN-in-data policy: NaNs rank
// below every number, where sort.Float64s put them, so the selection answers
// what the copy-and-sort it replaced answered.
func TestQuantileNaNDataOrdersFirst(t *testing.T) {
	nan := math.NaN()
	xs := []float64{3, nan, 1, nan, 2, math.Inf(-1), nan, 4}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 10, 37.5, 38, 50, 62.5, 63, 90, 100} {
		got, want := Quantile(xs, q), QuantileSorted(sorted, q)
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Errorf("Quantile(%g) = %v, sorted reference %v", q, got, want)
		}
	}
	if !math.IsNaN(Quantile(xs, 37.5)) || Quantile(xs, 38) != math.Inf(-1) {
		t.Errorf("three NaNs of eight must fill ranks 0–2 exactly")
	}
}

// TestQuantilesMatchSortedProperty: every percentile of a multi-rank call,
// in the order asked, is the element a full sort leaves at its ceil-rank.
func TestQuantilesMatchSortedProperty(t *testing.T) {
	f := func(raw []float64, qraw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		qs := make([]float64, len(qraw))
		for i, q := range qraw {
			qs[i] = float64(q%1100)/10 - 5 // [−5, 105): clamps at both ends
		}
		before := append([]float64(nil), raw...)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		got := Quantiles(raw, qs...)
		for i := range raw {
			if math.Float64bits(raw[i]) != math.Float64bits(before[i]) {
				return false // input mutated
			}
		}
		for i, q := range qs {
			if want := QuantileSorted(sorted, q); !sameOrderStat(got[i], want) {
				return false
			}
		}
		return len(got) == len(qs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantilesPooledScratch holds the pooled selection copy to a full sort:
// inputs on both sides of selectScratchMax, interleaved so a pooled buffer
// left by a longer input serves a shorter one, answer every rank with the
// bits sort.Float64s leaves there. The pool never holds a buffer longer than
// selectScratchMax, whatever Quantiles was asked.
func TestQuantilesPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qs := []float64{0, 1, 50, 95, 99.9, 100}
	for _, n := range []int{selectScratchMax, 1, 7, selectScratchMax + 1, 1000, selectScratchMax - 1, 3} {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(50) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = xs[rng.Intn(i+1)] // a duplicate
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		got := Quantiles(xs, qs...)
		for k, q := range qs {
			if want := sorted[QuantileIndex(n, q)]; math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("n=%d q=%g: %v, want %v as sorted", n, q, got[k], want)
			}
		}
		for range 4 { // whatever the pool hands out, none is over the cap
			p := selectScratch.Get().(*[]float64)
			if cap(*p) > selectScratchMax {
				t.Fatalf("after n=%d the pool holds a %d-element buffer, cap %d", n, cap(*p), selectScratchMax)
			}
			defer selectScratch.Put(p)
		}
	}
}
