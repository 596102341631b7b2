package sim

import (
	"math"
	"math/rand"
	"testing"
)

// drawsMatchStdlib seeds an RNG and a stdlib rand.Rand alike and compares n
// draws cycling through every sampler the repository uses; each sampler
// consumes the source differently (NormFloat64 and ExpFloat64 reject and
// redraw), so a single wrong word surfaces within a cycle.
func drawsMatchStdlib(t *testing.T, g *RNG, seed int64, n int) {
	t.Helper()
	std := rand.New(rand.NewSource(seed))
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

// FuzzSourceSeed searches the seed space for any seed whose stream departs
// from the stdlib's within draws draws.
func FuzzSourceSeed(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(1<<31-1), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(64))
	f.Add(int64(-1), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		drawsMatchStdlib(t, NewRNG(seed), seed, int(draws))
	})
}
