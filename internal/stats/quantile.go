package stats

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Quantile returns the q-th percentile of xs (q in (0, 100]) under the
// ceil-rank convention shared by the simulator's and the local runtime's
// service-time metrics: the value at index ⌈q/100·n⌉−1 of the sorted data —
// an exact order statistic, so it is selected from a copy of xs rather than
// read off a sorted one (NaNs rank first, as sort.Float64s has them). xs is
// not modified; q outside the range clamps to the nearest element. Empty
// input or a NaN q panics: a quantile of nothing, or at no rank, is a bug.
func Quantile(xs []float64, q float64) float64 { return Quantiles(xs, q)[0] }

// Quantiles is Quantile at several percentiles from one copy and one
// selection over it, for callers that report tail and median together.
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty data")
	}
	ranks := make([]int, len(qs))
	for i, q := range qs {
		ranks[i] = QuantileIndex(len(xs), q)
	}
	var pooled *[]float64
	var work []float64
	if len(xs) <= selectScratchMax {
		pooled = selectScratch.Get().(*[]float64)
		if cap(*pooled) < len(xs) {
			*pooled = make([]float64, len(xs))
		}
		work = (*pooled)[:len(xs)]
	} else {
		work = make([]float64, len(xs))
	}
	selectRanks(work, xs, ranks)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = work[QuantileIndex(len(xs), q)]
	}
	if pooled != nil {
		selectScratch.Put(pooled)
	}
	return out
}

// selectScratchMax is the largest input Quantiles selects in a pooled copy;
// a larger one allocates its own, so the pool never pins a big burst's end
// column (≤ 512 KB a buffer).
const selectScratchMax = 1 << 16

var selectScratch = sync.Pool{New: func() any { return new([]float64) }}

// QuantileSorted is Quantile over data already in ascending order.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty data")
	}
	return sorted[QuantileIndex(len(sorted), q)]
}

// QuantileIndex returns the ceil-rank index ⌈q/100·n⌉−1 clamped to [0, n),
// before the conversion (Go leaves int(±Inf) undefined); a NaN q panics.
func QuantileIndex(n int, q float64) int {
	switch r := math.Ceil(q / 100 * float64(n)); {
	case q != q:
		panic("stats: NaN quantile")
	case r >= float64(n):
		return max(n-1, 0)
	case r >= 1:
		return int(r) - 1
	}
	return 0
}

// selectRanks copies src into xs (equally long; it may be xs itself)
// arranged so that, for every k in ranks (any order, each in [0, len(xs));
// sorted in place), xs[k] is the value sort.Float64s would leave there. It
// is a multi-rank introselect: a Hoare partition continued only into the
// sides that still hold a wanted rank, and a sort of a side once it is small
// or 2·⌈log₂ n⌉ rounds are spent — expected O(n) for a fixed number of ranks,
// never worse than the sort.
func selectRanks(xs, src []float64, ranks []int) {
	sort.Ints(ranks)
	nans := 0
	for i, x := range src { // one pass copies and puts NaNs first: `<` cannot place them
		xs[i] = x
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	selectIn(xs, nans, len(xs), ranks, 2*bits.Len(uint(len(xs))))
}

// selectIn places the ranks (ascending) that fall in the NaN-free xs[lo:hi].
func selectIn(xs []float64, lo, hi int, ranks []int, budget int) {
	ranks = ranks[sort.SearchInts(ranks, lo):sort.SearchInts(ranks, hi)]
	if len(ranks) == 0 || hi-lo < 2 {
		return
	}
	if hi-lo <= 12 || budget == 0 {
		sort.Float64s(xs[lo:hi])
		return
	}
	p := xs[ranks[len(ranks)/2]] // a wanted rank's slot: on nearly ordered data, nearly its value
	i, j := lo, hi-1             // Hoare: xs[lo:i] ≤ p ≤ xs[j+1:hi], and both scans stop at p
	for i <= j {
		for xs[i] < p {
			i++
		}
		for xs[j] > p {
			j--
		}
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	selectIn(xs, lo, j+1, ranks, budget-1) // anything between j and i equals p
	selectIn(xs, i, hi, ranks, budget-1)
}
