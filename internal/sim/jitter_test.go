package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stdJitter is Jitter as math/rand alone computes it: one NormFloat64 per
// factor, clamped to ±3σ, and no draw at all for rel ≤ 0.
func stdJitter(std *rand.Rand, rel float64) float64 {
	if rel <= 0 {
		return 1
	}
	eps := std.NormFloat64() * rel
	if eps > 3*rel {
		eps = 3 * rel
	} else if eps < -3*rel {
		eps = -3 * rel
	}
	return 1 + eps
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzFillJitter holds the block draw to two oracles: the per-row Jitter
// loop, and math/rand's NormFloat64 on the stdlib source seeded alike. After
// prefix single-step draws (up to 700, so a block can start on either side of
// the lazily seeded register's 334-step boundary, or straddle it) it fills n
// rows, compares every factor on its bits, and then the stream's next Float64:
// a block that consumed one word too many or too few fails there. rel and base
// span the values a draw must pass through unchanged — rel ≤ 0 draws nothing,
// a NaN rel draws and yields NaN, a huge one overflows the clamp — and the
// checked-in corpus holds them; the fuzzer mutates everything else.
func FuzzFillJitter(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(700), 0.015, 31.7)
	f.Add(int64(-5), uint16(334), uint16(4096), 0.2, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, prefix, n uint16, rel, base float64) {
		prefix, n = prefix%701, n%4097
		g, row, std := NewRNG(seed), NewRNG(seed), rand.New(rand.NewSource(seed))
		for range prefix {
			g.Float64()
			row.Float64()
			std.Float64()
		}
		dst := make([]float64, n)
		g.FillJitter(dst, base, rel)
		for i, got := range dst {
			perRow, want := base*row.Jitter(rel), base*stdJitter(std, rel)
			if !sameFloat(got, want) || !sameFloat(perRow, want) {
				t.Fatalf("seed %d prefix %d row %d of %d (rel %g, base %g): FillJitter %v, Jitter %v, math/rand %v",
					seed, prefix, i, n, rel, base, got, perRow, want)
			}
		}
		if a, b, c := g.Float64(), row.Float64(), std.Float64(); a != c || b != c {
			t.Fatalf("seed %d prefix %d n %d rel %g: next Float64 %v (block), %v (per row), %v (math/rand)", seed, prefix, n, rel, a, b, c)
		}
	})
}

// stripWords are the strip-k words j (j&0x7f == k) a draw can meet at the
// edge of normK[k]: every one whose |j| is within 130 of it, of either sign,
// plus the strip's largest and smallest words.
func stripWords(k int) []int32 {
	words := []int32{math.MaxInt32&^0x7f | int32(k), math.MinInt32 + int32(k)}
	for a := int64(normK[k]) - 130; a <= int64(normK[k])+130; a++ {
		for _, j := range []int64{a, -a} {
			if j >= math.MinInt32 && j <= math.MaxInt32 && j&0x7f == int64(k) {
				words = append(words, int32(j))
			}
		}
	}
	return words
}

// TestFillJitterStripBoundaries draws chosen words: for every strip, the
// words on both sides of its acceptance bound, of either sign — which in strip
// 0 reach the base strip's tail, and in strip 1, whose every word math/rand
// rejects, the wedge test. Each is compared with math/rand's NormFloat64 over
// a copy of the same register: the factor on its bits, the stream's next
// Float64, and the read-back table itself — math/rand must read exactly one
// word for a word below normK[k] and more for one at or above it.
func TestFillJitterStripBoundaries(t *testing.T) {
	const rel = 0.2
	g := NewRNG(20230616)
	stepsMatchStdlib(t, g, 20230616, srcFeed) // the register is complete
	for k := range normK {
		words := stripWords(k)
		if len(words) < 4 {
			t.Fatalf("strip %d: only %d words at its edge %#x", k, len(words), normK[k])
		}
		for n, j := range words {
			w := uint64(uint32(j))<<31 | uint64(n)*0x9e3779b9&(1<<31-1)
			if n%2 == 1 {
				w |= 1 << 63 // Int63 drops the top bit
			}
			g.PlaceWord(w)
			copied := g.src
			std := &countingSource{Source64: &copied}
			want := stdJitter(rand.New(std), rel)
			var got [1]float64
			g.FillJitter(got[:], 1, rel)
			name := fmt.Sprintf("strip %d word %#x (|j| %#x, bound %#x)", k, uint32(j), absInt32(j), normK[k])
			if !sameFloat(got[0], want) {
				t.Fatalf("%s: FillJitter %v, math/rand %v", name, got[0], want)
			}
			if accepted := std.steps == 1; accepted != (absInt32(j) < normK[k]) {
				t.Fatalf("%s: math/rand read %d words", name, std.steps)
			}
			if a, b := g.Float64(), rand.New(&copied).Float64(); a != b {
				t.Fatalf("%s: next Float64 %v, math/rand %v", name, a, b)
			}
		}
	}
}

// TestTimersAtPanics: a block holding a malformed row — a negative delay, a
// NaN delay, or an instant that overflows to +Inf — first, in the middle or
// last panics with exactly TimerAt's message for that row, the first such
// row's when there are two, and leaves dst as the TimerAt loop leaves it: the
// rows before written, the rest untouched. It does so also when dst is d, as
// on a stored schedule's hit, where a block that wrote first and checked
// after would have lost the delay it must report. A clean block is TimerAt's
// row for row, bit for bit.
func TestTimersAtPanics(t *testing.T) {
	const n = 9
	type row struct{ from, d float64 }
	block := func(bad map[int]row) (from, d []float64) {
		from, d = make([]float64, n), make([]float64, n)
		for i := range from {
			from[i], d[i] = float64(i)*0.3, 1.5+float64(i)
		}
		d[1] = math.Copysign(0, -1) // −0 is a valid delay
		for i, r := range bad {
			from[i], d[i] = r.from, r.d
		}
		return from, d
	}
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	// loop is the TimerAt loop TimersAt stands for: its panic and its dst.
	loop := func(dst, from, d []float64) any {
		return panicOf(func() {
			for i := range dst {
				dst[i] = TimerAt(from[i], d[i])
			}
		})
	}
	check := func(name string, bad map[int]row) {
		for _, inPlace := range []bool{false, true} {
			from, d := block(bad)
			dst, wantDst := make([]float64, n), make([]float64, n)
			for i := range dst {
				dst[i], wantDst[i] = -7, -7
			}
			wantD := d
			if inPlace {
				dst, wantDst = d, slices.Clone(d)
				wantD = wantDst
			}
			want := loop(wantDst, from, wantD)
			got := panicOf(func() { TimersAt(dst, from, d) })
			if got != want {
				t.Errorf("%s (in place %v): panic %v, the TimerAt loop's %v", name, inPlace, got, want)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(wantDst[i]) {
					t.Errorf("%s (in place %v): row %d is %v, the TimerAt loop leaves %v", name, inPlace, i, dst[i], wantDst[i])
				}
			}
		}
	}
	check("clean block", nil)
	for _, b := range []struct {
		name string
		r    row
	}{
		{"negative delay", row{2, -1e-9}},
		{"negative delay, positive instant", row{5, -1}},
		{"NaN delay", row{2, math.NaN()}},
		{"+Inf instant", row{math.MaxFloat64, math.MaxFloat64}},
	} {
		if panicOf(func() { TimerAt(b.r.from, b.r.d) }) == nil {
			t.Fatalf("%s: TimerAt does not panic", b.name)
		}
		for _, at := range []int{0, n / 2, n - 1} {
			check(fmt.Sprintf("%s at row %d", b.name, at), map[int]row{at: b.r})
		}
	}
	check("two malformed rows", map[int]row{2: {2, math.NaN()}, 6: {5, -1}})
}
