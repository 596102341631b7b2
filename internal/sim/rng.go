package sim

import "math/rand"

// RNG is a deterministic random stream used for execution-time jitter and
// workload input generation. Distinct components derive independent streams
// from a root seed so adding a consumer does not perturb the others.
//
// The stream is math/rand's, bit for bit — rand.New over a source that seeds
// to rand.NewSource(seed)'s state without the stdlib's seeding cost (see
// source.go). An RNG must not be copied: r draws from the embedded src.
type RNG struct {
	src source
	r   *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed restarts the stream as NewRNG(seed) would have started it, reusing
// the generator's storage: a pooled RNG costs no allocation per burst.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Stream derives an independent child stream labeled by id. The derivation
// is a SplitMix64-style hash of (seed, id) so streams do not overlap for
// practical run lengths.
func Stream(seed int64, id uint64) *RNG {
	return NewRNG(SplitSeed(seed, id))
}

// SplitSeed is the splittable seed derivation behind Stream: a SplitMix64
// mix of (seed, id). Parallel fan-outs use it to give every task its own
// stream from (root seed, task index) so results never depend on which
// worker ran the task or in what order.
func SplitSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential sample with rate 1 (mean 1). Divide by a
// rate λ to sample Exp(λ) — e.g. the crash time of an instance that fails at
// λ crashes per second.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Jitter returns a multiplicative noise factor 1 + ε where ε is normal with
// the given relative standard deviation, clamped to ±3σ so a single run
// cannot produce a negative or wildly outlying duration.
func (g *RNG) Jitter(relStdDev float64) float64 {
	if relStdDev <= 0 {
		return 1
	}
	eps := g.r.NormFloat64() * relStdDev
	if eps > 3*relStdDev {
		eps = 3 * relStdDev
	} else if eps < -3*relStdDev {
		eps = -3 * relStdDev
	}
	return 1 + eps
}
