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
// an exact order statistic, so it is selected rather than read off a sorted
// copy (NaNs rank first, as sort.Float64s has them). xs is
// not modified; q outside the range clamps to the nearest element. Empty
// input or a NaN q panics: a quantile of nothing, or at no rank, is a bug.
func Quantile(xs []float64, q float64) float64 { return Quantiles(xs, q)[0] }

// Quantiles is Quantile at several percentiles, for callers that report
// tail and median together: one selection answers every rank. An input of up
// to selectScratchMax values is selected in a pooled copy; a longer one is
// first bracketed from a sample and read once (selectBracketed), and copied
// whole only when the sample misleads.
func Quantiles(xs []float64, qs ...float64) []float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: quantile of empty data")
	}
	ranks := make([]int, len(qs))
	for i, q := range qs {
		ranks[i] = QuantileIndex(n, q)
	}
	out := make([]float64, len(qs))
	if n > selectScratchMax && selectBracketed(xs, ranks, out) {
		return out
	}
	var pooled *[]float64
	var work []float64
	if n <= selectScratchMax {
		pooled = getScratch(n)
		work = (*pooled)[:n]
	} else {
		work = make([]float64, n)
	}
	selectRanks(work, xs, ranks)
	for i, q := range qs {
		out[i] = work[QuantileIndex(n, q)]
	}
	if pooled != nil {
		selectScratch.Put(pooled)
	}
	return out
}

// selectScratchMax is the longest buffer Quantiles draws from its pool: an
// input up to this long is selected in a pooled copy, and a longer one's
// sample and kept sets are at most this long, so the pool never pins a big
// burst's end column (≤ 512 KB a buffer).
const selectScratchMax = 1 << 16

var selectScratch = sync.Pool{New: func() any { return new([]float64) }}

// getScratch draws a pooled buffer of capacity at least n ≤ selectScratchMax.
func getScratch(n int) *[]float64 {
	p := selectScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p
}

// The bracketed path's sample: bracketSample values strided over the input,
// and bracketSlack sample ranks either side of the one a wanted rank maps to.
// A sample rank's spread around that point is at most √(m/4) ≈ 45, so the
// slack is over 4σ, while the 2·slack·n/m values a bracket keeps fit its
// buffer up to n ≈ 1.2·10⁶. The pass reads passBlock values at a time and
// scans each block once per pair of brackets while it is in cache.
const (
	bracketSample = 1 << 13
	bracketSlack  = 200
	passBlock     = 1 << 11
)

// bracket is one value range [lo, hi] the pass keeps, for the wanted ranks
// sorted[first:last] that the sample places inside it.
type bracket struct {
	lo, hi      float64
	first, last int
	below       int // values that sort before lo: x < lo, and NaN
	n           int // values kept, in kept[:n]
	pooled      *[]float64
	kept        *[selectScratchMax]float64
}

// selectBracketed answers out[i] = the value sort.Float64s leaves at
// ranks[i] of xs (longer than bracketSample) the Floyd–Rivest way, or reports
// false with out untouched. A strided sample, selected, brackets each wanted
// rank between two of its values, lo and hi, and brackets that overlap or
// touch merge; one pass over xs counts, per bracket, the values that sort
// before lo (!(x >= lo), so NaNs count there) and keeps those in [lo, hi].
// Sorted, xs holds those below first and then the kept values in order, so
// a rank inside [below, below+kept) is the kept values' order statistic at
// rank − below: the same element, bit for bit. It reports false — and
// Quantiles copies xs whole — when a bound is NaN, a kept set outgrows its
// buffer, or a rank lies outside its bracket.
func selectBracketed(xs []float64, ranks []int, out []float64) bool {
	n, m := len(xs), bracketSample
	sorted := append(make([]int, 0, len(ranks)), ranks...)
	sort.Ints(sorted)
	sampleRank := func(k int) int { return int(int64(k) * int64(m) / int64(n)) }

	sample := getScratch(m)
	defer selectScratch.Put(sample)
	s := (*sample)[:m]
	for j := range s {
		s[j] = xs[sampleIndex(j, n)]
	}
	var srStore [8]int
	sr := srStore[:0]
	for _, k := range sorted {
		c := sampleRank(k)
		sr = append(sr, max(c-bracketSlack, 0), min(c+bracketSlack, m-1))
	}
	selectRanks(s, s, sr)
	var store [4]bracket
	bs := store[:0]
	for i, k := range sorted { // a sample rank off the sample's end leaves the bracket open there
		c, b := sampleRank(k), bracket{lo: math.Inf(-1), hi: math.Inf(1), first: i, last: i + 1}
		if c >= bracketSlack {
			b.lo = s[c-bracketSlack]
		}
		if c+bracketSlack < m {
			b.hi = s[c+bracketSlack]
		}
		if b.lo != b.lo || b.hi != b.hi {
			return false
		}
		if len(bs) > 0 && b.lo <= bs[len(bs)-1].hi { // the pass needs value ranges apart
			bs[len(bs)-1].hi, bs[len(bs)-1].last = b.hi, b.last
			continue
		}
		bs = append(bs, b)
	}
	for i := range bs {
		bs[i].pooled = getScratch(selectScratchMax)
		defer selectScratch.Put(bs[i].pooled)
		bs[i].kept = (*[selectScratchMax]float64)((*bs[i].pooled)[:selectScratchMax])
	}

	none := bracket{lo: math.NaN(), hi: math.NaN()} // keeps nothing: the partner of an odd bracket out
	for start := 0; start < n; start += passBlock {
		blk := xs[start:min(start+passBlock, n)]
		for i := 0; i < len(bs); i += 2 {
			b, c := &bs[i], &none
			if i+1 < len(bs) {
				c = &bs[i+1]
			}
			if b.n > selectScratchMax-passBlock || c.n > selectScratchMax-passBlock {
				return false
			}
			scanPair(blk, b, c)
		}
	}

	for _, b := range bs {
		if sorted[b.first] < b.below || sorted[b.last-1] >= b.below+b.n {
			return false
		}
	}
	for _, b := range bs {
		local := append(srStore[:0], sorted[b.first:b.last]...)
		for i := range local {
			local[i] -= b.below
		}
		selectRanks(b.kept[:b.n], b.kept[:b.n], local)
	}
	for i, k := range ranks { // the bracket that selected k answers it
		b := bs[0]
		for _, c := range bs[1:] {
			if k >= sorted[c.first] {
				b = c
			}
		}
		out[i] = b.kept[k-b.below]
	}
	return true
}

// sampleIndex is the index of an n-long input that sample value j reads.
func sampleIndex(j, n int) int { return int(int64(j) * int64(n) / bracketSample) }

// scanPair adds to b and c (c.lo > b.hi) the values of blk that sort
// before their lo and keeps, in kept[:n], those in their [lo, hi]; each has
// room for all of blk, and the mask only spares the bounds check. It
// branches on the value: on a column nearly in order, as a burst's end
// column is, the branches predict, and a value below b costs one compare.
func scanPair(blk []float64, b, c *bracket) {
	lo1, hi1, n1, kept1 := b.lo, b.hi, b.n, b.kept
	lo2, hi2, n2, kept2 := c.lo, c.hi, c.n, c.kept
	ge1, ge2 := 0, 0
	for _, x := range blk {
		if x >= lo1 { // false for NaN
			ge1++
			if x <= hi1 {
				kept1[n1&(selectScratchMax-1)] = x
				n1++
			} else if x >= lo2 {
				ge2++
				if x <= hi2 {
					kept2[n2&(selectScratchMax-1)] = x
					n2++
				}
			}
		}
	}
	b.n, b.below = n1, b.below+len(blk)-ge1
	c.n, c.below = n2, c.below+len(blk)-ge2
}

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
