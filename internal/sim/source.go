package sim

import "math/rand"

// source is a rand.Source64 that is bit-identical to rand.NewSource(seed):
// the same 607-word additive lagged-Fibonacci generator, seeded to the same
// state, at a fraction of the seeding cost.
//
// The stdlib fills the register from one Lehmer chain x ← 48271·x mod
// (2³¹−1): 20 discarded steps, then three per word, 1,841 dependent steps
// with a division each — about 10 µs, which is most of a one-instance probe
// burst. But step k of that chain is just 48271ᵏ·seed mod (2³¹−1), so with
// the powers tabulated once every word is three independent multiplications
// and Mersenne reductions: no division, no dependent chain.
//
// The stdlib then XORs each word with an additive constant from an
// unexported table. That table is recovered at init from the stdlib
// generator itself (see init), not vendored, so math/rand is the only
// oracle and no second copy of anything is kept; TestSourceMatchesStdlib
// and FuzzSourceSeed hold the two to the same bits.
//
// The register is seeded as it is read. The walk is fixed — feed runs
// 333 → 0 while tap runs 606 → 273 — so step k ≤ 334 is the first to touch
// vec[feed], and vec[tap] too while tap is still above feed's starting
// point; after 334 steps all 607 words exist. A burst that draws k < 334
// times pays for about 2k words instead of 607 (DESIGN §15).
//
// Once unread is 0, strip (rng.go) also steps the register, for the normal
// draw's common strip; a word it rejects it leaves for Uint64 to take.
type source struct {
	tap, feed int
	vec       [srcLen]int64
	seed      uint64 // reduced seed the words not yet read derive from
	unread    int    // steps left whose reads the register does not hold yet
}

const (
	srcLen = 607 // register length
	srcTap = 273 // lag between the two summed words
	// srcFeed is where feed starts; the first srcFeed steps read the register
	// as seeded, every later one only words an earlier step wrote.
	srcFeed = srcLen - srcTap

	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// seedWarmup is the number of chain steps the stdlib discards before
	// the three that make word 0.
	seedWarmup = 20
)

var (
	// lehmerPow[3i+j] is 48271^(seedWarmup+3i+j+1) mod lehmerM: the
	// multiplier taking the seed to the j-th chain value behind word i.
	lehmerPow [3 * srcLen]uint64
	// srcCooked are the stdlib's per-word additive constants.
	srcCooked [srcLen]int64
)

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹. Since 2³¹ ≡ 1, a number's
// residue is the sum of its 31-bit digits; two folds bring a 62-bit product
// to at most lehmerM+1.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

func init() {
	p := uint64(1)
	for k := 0; k < seedWarmup; k++ {
		p = mulmod(p, lehmerA)
	}
	for k := range lehmerPow {
		p = mulmod(p, lehmerA)
		lehmerPow[k] = p
	}

	// Recover the additive constants. Each step of the generator overwrites
	// vec[feed] with its output, and 607 steps visit every slot once, so 607
	// outputs of a stdlib source are its whole register after those steps.
	// Running the recurrence backwards (vec[feed] −= vec[tap], indices
	// stepping up) returns the register as seeded, and XORing out the bare
	// Lehmer words — what word returns while srcCooked is still zero —
	// leaves the constants.
	const probeSeed = 1
	std := rand.NewSource(probeSeed).(rand.Source64)
	var vec [srcLen]int64
	feed := srcFeed
	for range vec {
		feed = (feed + srcLen - 1) % srcLen
		vec[feed] = int64(std.Uint64())
	}
	tap := 0
	for range vec {
		vec[feed] -= vec[tap]
		feed = (feed + 1) % srcLen
		tap = (tap + 1) % srcLen
	}
	var bare source
	bare.Seed(probeSeed)
	for i := range srcCooked {
		srcCooked[i] = vec[i] ^ bare.word(i)
	}
}

// Seed restarts the stream where rand.NewSource(seed) starts it. No word is
// computed here: Uint64 fills each as its first read comes up.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcFeed
	s.unread = srcFeed

	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // the stdlib's stand-in for the chain's fixed point
	}
	s.seed = uint64(seed)
}

// word returns register word i as rand.NewSource seeds it.
func (s *source) word(i int) int64 {
	pow := lehmerPow[3*i : 3*i+3]
	u := int64(mulmod(pow[0], s.seed))<<40 ^ int64(mulmod(pow[1], s.seed))<<20 ^ int64(mulmod(pow[2], s.seed))
	return u ^ srcCooked[i]
}

// Uint64 steps the generator: x[n] = x[n−273] + x[n−607].
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	if s.unread > 0 {
		s.unread--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= srcFeed { // below srcFeed, an earlier step fed the word
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the low 63 bits of the next step.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
