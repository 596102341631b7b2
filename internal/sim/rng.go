package sim

import (
	"math/rand"
	"sort"
)

// RNG is a deterministic random stream used for execution-time jitter and
// workload input generation. Distinct components derive independent streams
// from a root seed so adding a consumer does not perturb the others.
//
// The stream is math/rand's, bit for bit — rand.New over a source that seeds
// to rand.NewSource(seed)'s state without the stdlib's seeding cost (see
// source.go); Jitter and FillJitter alone step the register themselves, for
// a normal draw in the ziggurat's common strip (strip). An RNG must not be
// copied: r draws from the embedded src.
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
	return clampJitter(g.norm(), relStdDev)
}

// FillJitter sets dst[i] = base * g.Jitter(rel) in order: the same bits, and
// the stream left where len(dst) Jitter calls leave it. Once the register is
// complete it keeps tap and feed in locals for the block, and hands a word
// the common strip rejects (≈ 2.8%) to math/rand, which draws it again.
func (g *RNG) FillJitter(dst []float64, base, rel float64) {
	if rel <= 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	s, i := &g.src, 0
	for ; i < len(dst) && s.unread > 0; i++ { // no strip before the register is complete
		dst[i] = base * clampJitter(g.r.NormFloat64(), rel)
	}
	tap, feed := s.tap, s.feed
	for ; i < len(dst); i++ {
		t, f := prev(tap), prev(feed)
		z, ok := s.strip(t, f)
		if ok {
			tap, feed = t, f
		} else {
			s.tap, s.feed = tap, feed
			z = g.r.NormFloat64()
			tap, feed = s.tap, s.feed
		}
		dst[i] = base * clampJitter(z, rel)
	}
	s.tap, s.feed = tap, feed
}

// norm returns math/rand's NormFloat64, taking the common strip inline once
// the register is complete.
func (g *RNG) norm() float64 {
	s := &g.src
	if s.unread == 0 {
		t, f := prev(s.tap), prev(s.feed)
		if z, ok := s.strip(t, f); ok {
			s.tap, s.feed = t, f
			return z
		}
	}
	return g.r.NormFloat64()
}

// strip is math/rand's NormFloat64 for a word in the ziggurat's common strip:
// the step of a complete register that feeds vec[f] with tap t. A word the
// strip rejects is not committed (ok false), so math/rand's NormFloat64 can
// draw it again and run the tail, which is kept nowhere else.
func (s *source) strip(t, f int) (z float64, ok bool) {
	x := s.vec[f] + s.vec[t]
	j := int32(uint64(x) >> 31) // rand.Rand.Uint32 of this step
	k := j & 0x7f
	if absInt32(j) >= normK[k] {
		return 0, false
	}
	s.vec[f] = x
	return float64(j) * float64(normW[k]), true
}

// prev is the register index before i: tap and feed walk down, wrapping.
func prev(i int) int {
	if i == 0 {
		return srcLen - 1
	}
	return i - 1
}

// clampJitter is 1 + z·rel clamped to ±3·rel.
func clampJitter(z, rel float64) float64 {
	eps := z * rel
	if eps > 3*rel {
		eps = 3 * rel
	} else if eps < -3*rel {
		eps = -3 * rel
	}
	return 1 + eps
}

// absInt32 is math/rand's |j| without a branch: j's sign is a coin flip.
func absInt32(j int32) uint32 {
	m := j >> 31
	return uint32((j ^ m) - m)
}

// normK and normW are math/rand's ziggurat strip tables as NormFloat64's
// first test sees them: word j of strip k = j&0x7f returns float64(j) ·
// normW[k] at once exactly when |j| < normK[k]. Like srcCooked they are read
// back from math/rand at init: normW[k] from an accepted word, normK[k] by a
// binary search for the least rejected |j| of each sign (acceptance is
// monotone in |j|). Strip 1 accepts no word: math/rand's kn[1] is 0.
var (
	normK [128]uint32
	normW [128]float32
)

// wordProbe is a rand.Source whose first Int63 makes Uint32 return first and
// whose later ones return 0, counting its reads: NormFloat64 accepted first
// in the common strip iff it read once.
type wordProbe struct {
	first int32
	reads int
}

func (p *wordProbe) Seed(int64) {}

func (p *wordProbe) Int63() int64 {
	if p.reads++; p.reads > 1 {
		return 0
	}
	return int64(uint32(p.first)) << 31
}

func init() {
	p := new(wordProbe)
	std := rand.New(p)
	draw := func(j int) (z float64, accepted bool) {
		p.first, p.reads = int32(j), 0
		z = std.NormFloat64()
		return z, p.reads == 1
	}
	rejects := func(j int) bool { _, ok := draw(j); return !ok }
	const words = 1 << 24 // per strip and sign
	for k := range normK {
		if z, ok := draw(k + 128); ok {
			normW[k] = float32(z / float64(k+128))
		}
		pos := k + 128*sort.Search(words, func(m int) bool { return rejects(k + 128*m) })
		neg := 128*(1+sort.Search(words, func(m int) bool { return rejects(k - 128*(m+1)) })) - k
		normK[k] = uint32(min(pos, neg))
	}
}
