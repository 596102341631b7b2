package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sameOrderStat reports whether a selection's answer is the sort's: the same
// bits, except that NaNs are one value and −0 and +0, which compare equal
// and so land in either order under any unstable sort, are too.
func sameOrderStat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || got == want || (got != got && want != want)
}

// checkSelectRanks runs selectRanks from xs into a copy and holds every asked
// rank to sort.Float64s, and the slice to a permutation of its input.
func checkSelectRanks(t *testing.T, xs []float64, ranks []int) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	work := make([]float64, len(xs))
	asked := append([]int(nil), ranks...)
	selectRanks(work, xs, asked)
	if !sort.IntsAreSorted(asked) {
		t.Fatalf("selectRanks left its ranks unsorted: %v", asked)
	}
	for _, k := range ranks {
		if !sameOrderStat(work[k], sorted[k]) {
			t.Fatalf("rank %d of %d: selected %v (%#x), sorted %v (%#x)", k, len(xs),
				work[k], math.Float64bits(work[k]), sorted[k], math.Float64bits(sorted[k]))
		}
	}
	sort.Float64s(work)
	for i := range work {
		if !sameOrderStat(work[i], sorted[i]) {
			t.Fatalf("selectRanks did not permute its input: sorted element %d is %v, was %v", i, work[i], sorted[i])
		}
	}
}

// FuzzSelectRanks holds the multi-rank selection to sort.Float64s on any
// float64s — NaN, ±Inf, ±0, subnormals and duplicates arrive as raw bit
// patterns — at ranks decoded from the first payload (little-endian uint16s
// and an odd last byte, each modulo n): repeated, out of order, ends included.
func FuzzSelectRanks(f *testing.F) {
	// The shapes a quickselect has opinions about — sorted, reversed, organ
	// pipe, all equal, the pivot-starving permutation — are checked in under
	// testdata/fuzz/FuzzSelectRanks; these seed the value space.
	f.Add([]byte{0}, encodeFloats(7))
	f.Add([]byte{0, 0, 2, 0, 3, 0}, encodeFloats(0, math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0}, encodeFloats(math.Inf(1), math.Inf(-1), math.NaN(), 1))
	f.Add([]byte{7, 0, 7, 0, 1}, encodeFloats(5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-300, 0, 1, -1))
	f.Fuzz(func(t *testing.T, rankBytes, data []byte) {
		xs := decodeFloats(data)
		if len(xs) == 0 {
			return
		}
		ranks := make([]int, 0, len(rankBytes)/2+1)
		for len(rankBytes) >= 2 {
			ranks = append(ranks, int(binary.LittleEndian.Uint16(rankBytes))%len(xs))
			rankBytes = rankBytes[2:]
		}
		if len(rankBytes) == 1 {
			ranks = append(ranks, int(rankBytes[0])%len(xs))
		}
		checkSelectRanks(t, xs, ranks)
	})
}

// ramp is n values 0, step, 2·step, …
func ramp(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * step
	}
	return out
}

// TestSelectRanksShapes sweeps the input shapes a quickselect has opinions
// about, at sizes on both sides of the small-slice sort, for a tail-and-
// median pair and for every rank at once.
func TestSelectRanksShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(141421))
	for _, n := range []int{1, 2, 3, 12, 13, 14, 100, 1000, 4097} {
		shapes := map[string][]float64{
			"sorted":     ramp(n, 1),
			"reverse":    ramp(n, -1),
			"all equal":  make([]float64, n),
			"organ pipe": append(ramp(n/2, 1), ramp(n-n/2, -1)...),
			"random":     make([]float64, n),
			"two values": make([]float64, n),
			"near sorted": func() []float64 { // the end column of a burst: index order plus jitter
				xs := ramp(n, 1)
				for i := range xs {
					xs[i] += 40 * rng.NormFloat64()
				}
				return xs
			}(),
		}
		for i := 0; i < n; i++ {
			shapes["random"][i] = rng.NormFloat64()
			shapes["two values"][i] = float64(rng.Intn(2))
		}
		all := make([]int, n)
		for i := range all {
			all[i] = n - 1 - i
		}
		for name, xs := range shapes {
			t.Run(name, func(t *testing.T) {
				checkSelectRanks(t, xs, []int{QuantileIndex(n, 95), QuantileIndex(n, 50)})
				checkSelectRanks(t, xs, []int{0})
				checkSelectRanks(t, xs, []int{n - 1, 0, n / 2, n / 2})
				checkSelectRanks(t, xs, all)
				checkSelectRanks(t, xs, nil)
			})
		}
	}
}

// TestSelectRanksBudget: the partition budget is what bounds the selection.
// rankPivotKiller starves selectIn's pivot rule — every round peels one
// element — so an unbounded quickselect walks n/2 rounds to the median and
// leaves everything above it unsorted (which shows the adversary bites),
// while selectRanks spends its 2·⌈log₂ n⌉ rounds and sorts what is left: the
// whole slice ends up in order, n·log n work in all and no quadratic case.
func TestSelectRanksBudget(t *testing.T) {
	const n, k = 4096, 2048
	killer := rankPivotKiller(n, k)
	checkSelectRanks(t, killer, []int{k})
	checkSelectRanks(t, killer, []int{k, QuantileIndex(n, 95)})

	unbounded := append([]float64(nil), killer...)
	selectIn(unbounded, 0, n, []int{k}, n)
	if unbounded[k] != k {
		t.Fatalf("unbounded selection put %v at rank %d", unbounded[k], k)
	}
	if sort.Float64sAreSorted(unbounded) {
		t.Fatal("the adversary does not starve the pivot: an unbounded selection sorted everything")
	}

	bounded := append([]float64(nil), killer...)
	selectRanks(bounded, bounded, []int{k})
	if !sort.Float64sAreSorted(bounded) {
		t.Fatal("selectRanks did not fall back to the sort on a pivot-starving input")
	}
}

// rankPivotKiller builds a permutation of 0…n−1 on which a quickselect for
// rank k that takes xs[k] as its pivot and partitions as selectIn does finds
// the least remaining value there for k rounds running. It plays the rounds
// forward on the elements' identities, naming each pivot as it is chosen: a
// least pivot makes Hoare's scans meet after one swap — pivot to the front,
// the front's element to slot k, the search on in xs[lo+1:]. What is never
// chosen goes in descending, for the unbounded walk to leave that way.
func rankPivotKiller(n, k int) []float64 {
	xs := make([]float64, n)
	at := make([]int, n) // at[i]: original index of the element now at position i
	for i := range at {
		at[i] = i
	}
	for lo := 0; lo < k; lo++ {
		xs[at[k]] = float64(lo)
		at[lo], at[k] = at[k], at[lo]
	}
	for i := k; i < n; i++ {
		xs[at[i]] = float64(n - 1 - (i - k))
	}
	return xs
}

// largeShapes are the long columns (past selectScratchMax) whose shape
// decides the bracketed path, each built from rng at length n, and whether
// Quantiles answers its tail and median on that path (bracketed) or falls
// back to the whole copy: a kept set outgrowing its buffer (all equal; two
// values, where the median's bracket spans both), a NaN bound, or a rank the
// sample misplaces (NaNs it over-counts, a column periodic in its stride).
var largeShapes = []struct {
	name      string
	bracketed bool
	build     func(rng *rand.Rand, n int) []float64
}{
	{"near sorted", true, func(rng *rand.Rand, n int) []float64 { // a burst's end column
		xs := ramp(n, 1)
		for i := range xs {
			xs[i] += 40 * rng.NormFloat64()
		}
		return xs
	}},
	{"random", true, func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}},
	{"all equal", false, func(rng *rand.Rand, n int) []float64 { return make([]float64, n) }},
	{"two values", false, func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(2))
		}
		return xs
	}},
	{"ties at the bounds", true, func(rng *rand.Rand, n int) []float64 { // 512 values, each n/512 times
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(512))
		}
		return xs
	}},
	{"±Inf", true, func(rng *rand.Rand, n int) []float64 { // 1 % at each end
		xs := make([]float64, n)
		for i := range xs {
			switch r := rng.Intn(100); r {
			case 0:
				xs[i] = math.Inf(-1)
			case 1:
				xs[i] = math.Inf(1)
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		return xs
	}},
	{"NaN at every sampled index", false, func(rng *rand.Rand, n int) []float64 {
		xs := ramp(n, 1)
		for i, at := range sampledAt(n) {
			if at {
				xs[i] = math.NaN()
			}
		}
		return xs
	}},
	{"NaN at a tenth of the sampled indices", false, func(rng *rand.Rand, n int) []float64 {
		xs := ramp(n, 1)
		j := 0
		for i, at := range sampledAt(n) {
			if at {
				if j%10 == 0 {
					xs[i] = math.NaN()
				}
				j++
			}
		}
		return xs
	}},
	{"NaN in the low 30 %", true, func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			if rng.Intn(10) < 3 {
				xs[i] = math.NaN()
			}
		}
		return xs
	}},
	{"periodic in the sample stride", false, func(rng *rand.Rand, n int) []float64 {
		// The column repeats with the stride n/m the sample walks, and the
		// sample sees only each period's least value.
		xs := make([]float64, n)
		for i, at := range sampledAt(n) {
			if !at {
				xs[i] = 1 + float64(i%97)
			}
		}
		return xs
	}},
}

// sortedCopy is xs in sort.Float64s' order, the reference every selection
// is held to.
func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// checkQuantiles holds Quantiles to sorted, xs in sort.Float64s' order, at
// every q, and its input to what it was.
func checkQuantiles(t *testing.T, xs, sorted, qs []float64) {
	t.Helper()
	before := append([]float64(nil), xs...)
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		if want := QuantileSorted(sorted, q); !sameOrderStat(got[i], want) {
			t.Fatalf("n=%d q=%g: %v (%#x), sorted %v (%#x)", len(xs), q,
				got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("n=%d: Quantiles changed its input at %d", len(xs), i)
		}
	}
}

// TestQuantilesBracketedShapes holds Quantiles on long columns to the sort
// at the tail and median, one rank, and both ends with four between, and
// holds each shape's tail and median to the path it must take. A low rank of
// a NaN-heavy column has a NaN bound and falls back.
func TestQuantilesBracketedShapes(t *testing.T) {
	tailMedian := []float64{95, 50}
	rng := rand.New(rand.NewSource(271828))
	for _, n := range []int{selectScratchMax + 1, 2*selectScratchMax + 3, 1_000_000} {
		for _, sh := range largeShapes {
			xs := sh.build(rng, n)
			sorted := sortedCopy(xs)
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				for _, qs := range [][]float64{tailMedian, {10}, {0, 1, 10, 50, 95, 99.9, 100}} {
					checkQuantiles(t, xs, sorted, qs)
				}
				if got := quantilesBracketed(xs, tailMedian...); got != sh.bracketed {
					t.Errorf("tail and median bracketed: %v, want %v", got, sh.bracketed)
				}
				if sh.name == "NaN in the low 30 %" && quantilesBracketed(xs, 10) {
					t.Error("a rank among the NaNs was bracketed")
				}
			})
		}
	}
}

// TestQuantilesBracketsTouching: a tail bracket whose upper bound reaches a
// mass of equal values (here +Inf, 3 % of the column) meets the next
// bracket, which starts in the same mass, though their sample ranks are
// apart. The pass counts a value for one bracket at most, so the two merge;
// kept apart, the second would miss the mass in its count below.
func TestQuantilesBracketsTouching(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 2*selectScratchMax+3)
	for i := range xs {
		switch r := rng.Intn(100); {
		case r < 3:
			xs[i] = math.Inf(-1)
		case r < 6:
			xs[i] = math.Inf(1)
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	qs := []float64{95, 99.9, 100}
	if !quantilesBracketed(xs, qs...) {
		t.Fatal("the tail ranks fell back: the case is not exercised")
	}
	checkQuantiles(t, xs, sortedCopy(xs), qs)
}

// FuzzQuantilesLarge holds Quantiles on columns longer than selectScratchMax
// — the bracketed path and its fallback — to sort.Float64s. The column is
// built from a small payload: a seed, a shape (largeShapes), a length past
// selectScratchMax, a NaN rate in 256ths and up to seven percentiles, as
// little-endian uint16s over [0, 100], besides the median. The checked-in
// corpus holds the periodic-stride and NaN-heavy columns, which fall back.
func FuzzQuantilesLarge(f *testing.F) {
	f.Add(int64(1), byte(0), uint16(0), byte(0), []byte{0xcc, 0xf3})         // near sorted: tail
	f.Add(int64(2), byte(1), uint16(999), byte(3), []byte{0, 0, 0xff, 0xff}) // random, a few NaNs: both ends
	f.Add(int64(3), byte(4), uint16(77), byte(0), []byte{0x66, 0x66})        // ties: 40
	f.Fuzz(func(t *testing.T, seed int64, shape byte, extra uint16, nanRate byte, qBytes []byte) {
		n := selectScratchMax + 1 + int(extra)
		rng := rand.New(rand.NewSource(seed))
		xs := largeShapes[int(shape)%len(largeShapes)].build(rng, n)
		for i := range xs {
			if rng.Intn(256) < int(nanRate) {
				xs[i] = math.NaN()
			}
		}
		qs := []float64{50}
		for ; len(qBytes) >= 2 && len(qs) < 8; qBytes = qBytes[2:] {
			qs = append(qs, float64(binary.LittleEndian.Uint16(qBytes))/math.MaxUint16*100)
		}
		checkQuantiles(t, xs, sortedCopy(xs), qs)
	})
}

// TestQuantilesConcurrent: callers share only the scratch pool, so
// goroutines selecting in long and short columns at once each get the sort's
// answer (run under -race).
func TestQuantilesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cols := [][]float64{largeShapes[0].build(rng, 2*selectScratchMax+3), largeShapes[1].build(rng, selectScratchMax+1), largeShapes[1].build(rng, 1000)}
	want := make([][]float64, len(cols))
	for c, xs := range cols {
		sorted := sortedCopy(xs)
		want[c] = []float64{QuantileSorted(sorted, 95), QuantileSorted(sorted, 50)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				c := (g + r) % len(cols)
				if got := Quantiles(cols[c], 95, 50); got[0] != want[c][0] || got[1] != want[c][1] {
					t.Errorf("goroutine %d, column %d: %v, sorted %v", g, c, got, want[c])
				}
			}
		}(g)
	}
	wg.Wait()
}
