package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
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
