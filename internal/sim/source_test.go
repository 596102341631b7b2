package sim

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the steps a stdlib source has taken; the two
// generators are held in lockstep, so it is the source under test's count too.
type countingSource struct {
	rand.Source64
	steps int
}

func (c *countingSource) Int63() int64   { c.steps++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.steps++; return c.Source64.Uint64() }

// drawsMatchStdlib seeds a stdlib rand.Rand as g was seeded and compares n
// draws cycling through every sampler the repository uses; each sampler
// consumes the source differently (NormFloat64 and ExpFloat64 reject and
// redraw), so a single wrong word surfaces within a cycle — and the cycle
// crosses the lazy fill's two boundaries (step 273, where a step stops
// needing a second fresh word, and 334, where the register is complete) at a
// different phase for every seed. After each draw the fill's countdown must
// be exactly the steps still short of 334.
func drawsMatchStdlib(t *testing.T, g *RNG, seed int64, n int) {
	t.Helper()
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	std := rand.New(src)
	for i := 0; i < n; i++ {
		var got, want uint64
		switch i % 6 {
		case 0:
			got, want = uint64(g.Int63()), uint64(std.Int63())
		case 1:
			got, want = g.r.Uint64(), std.Uint64()
		case 2:
			got, want = math.Float64bits(g.Float64()), math.Float64bits(std.Float64())
		case 3:
			got, want = math.Float64bits(g.NormFloat64()), math.Float64bits(std.NormFloat64())
		case 4:
			got, want = math.Float64bits(g.ExpFloat64()), math.Float64bits(std.ExpFloat64())
		case 5:
			got, want = uint64(g.Intn(1+i)), uint64(std.Intn(1+i))
		}
		if got != want {
			t.Fatalf("seed %d draw %d (sampler %d): got %#x, stdlib %#x", seed, i, i%6, got, want)
		}
		if left := max(0, srcFeed-src.steps); g.src.unread != left {
			t.Fatalf("seed %d draw %d: after %d steps the fill countdown is %d, want %d", seed, i, src.steps, g.src.unread, left)
		}
	}
}

// stepsMatchStdlib compares n raw steps of g, seeded with seed, against the
// stdlib source: the way to park a stream at an exact register offset.
func stepsMatchStdlib(t *testing.T, g *RNG, seed int64, n int) {
	t.Helper()
	std := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if got, want := g.r.Uint64(), std.Uint64(); got != want {
			t.Fatalf("seed %d step %d: got %#x, stdlib %#x", seed, i, got, want)
		}
	}
}

// TestSourceMatchesStdlib holds the jump-ahead seeding and the recovered
// constant table to math/rand itself: for the seeds the stdlib special-cases
// (0 and every multiple of 2³¹−1 reduce to the stand-in 89482311, negatives
// wrap) and a few hundred arbitrary ones, a fresh RNG and a reseeded one both
// reproduce rand.New(rand.NewSource(seed)) draw for draw — past 607 draws, so
// every register word is read, and past 1214, so every fed-back word is too.
func TestSourceMatchesStdlib(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, m - 1, m, m + 1, 1 << 31, -m, -m - 1, 2 * m, 3 * m, -7 * m,
		(math.MaxInt64 / m) * m, 89482311, -89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20230616))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	reused := NewRNG(12345)
	reused.Float64() // a reseed must not depend on where the stream stood
	for _, seed := range seeds {
		drawsMatchStdlib(t, NewRNG(seed), seed, 3000)
		reused.Reseed(seed)
		drawsMatchStdlib(t, reused, seed, 3000)
	}
}

// TestSourceReseedAtEveryOffset is the lazy fill's own hazard: a reseed that
// lands on a half-filled register must not read a word the previous seed
// left there. From every offset through a full revolution and a half-filled
// second one, the reseeded stream is the stdlib's.
func TestSourceReseedAtEveryOffset(t *testing.T) {
	const s1, s2 = 20230616, -77
	for k := 0; k <= 700; k++ {
		g := NewRNG(s1)
		stepsMatchStdlib(t, g, s1, k)
		g.Reseed(s2)
		drawsMatchStdlib(t, g, s2, 1300)
	}
}

// FuzzSourceSeed searches the seed space for a stream that departs from the
// stdlib's: seed for its first drawsBefore steps, then seed2 — reseeded at
// that offset — for draws draws.
func FuzzSourceSeed(f *testing.F) {
	f.Add(int64(0), uint16(0), int64(0), uint16(700))
	f.Add(int64(1<<31-1), uint16(0), int64(1<<31-1), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(0), int64(math.MinInt64), uint16(64))
	f.Add(int64(-1), uint16(0), int64(-1), uint16(2000))
	for _, before := range []uint16{0, 1, 272, 273, 274, 333, 334, 335, 606, 607} {
		f.Add(int64(7), before, int64(math.MaxInt64), uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, drawsBefore uint16, seed2 int64, draws uint16) {
		g := NewRNG(seed)
		stepsMatchStdlib(t, g, seed, int(drawsBefore))
		g.Reseed(seed2)
		drawsMatchStdlib(t, g, seed2, int(draws))
	})
}
