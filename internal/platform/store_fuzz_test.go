package platform

import (
	"fmt"
	"math/rand"
	"testing"
)

// storeStep is one burst of a FuzzStoreSequence input, spelled as the five
// bytes it decodes from: the instance count's class and value; the degree
// and the last instance's shortfall; the demand, warm prefix, memory size
// and prices; the stagger; and the seed.
type storeStep struct{ size, degree, flags, stagger, seed byte }

// storeSequenceBursts caps an input's bursts: each is also run forced
// through the engine, and one may be millions of instances.
const storeSequenceBursts = 4

// pastStoreCap is the size byte of a burst larger than the whole store.
const pastStoreCap = 0xef

// encodeStoreSequence is decodeStoreSequence's inverse, used to build seeds:
// platform picks a preset (0–2) or the tie-prone platform drawn from tie (3).
func encodeStoreSequence(platform, tie byte, steps ...storeStep) []byte {
	out := []byte{platform, tie}
	for _, s := range steps {
		out = append(out, s.size, s.degree, s.flags, s.stagger, s.seed)
	}
	return out
}

// decodeStoreSequence reads a platform and up to storeSequenceBursts bursts
// on it. The size byte's low three bits pick a class — below storeMin (0),
// from storeMin to a few hundred (1–3), at overlapDrawMin (4), one to a few
// follower chunks above it (5–6), just below it (7) — and its high five bits
// the count inside the class. pastStoreCap, once an input, is one instance
// past scheduleStoreCap instead: such a burst costs a second, so it is not a
// byte a fuzzer writes often (0x00, 0xff). The flags byte holds the demand
// (bit 0: storeOther, else tandemLight), the warm prefix (bits 1–4), the
// memory size (bit 5: half) and a price factor (bits 6–7: ×1, ×2, ×0, ×1)
// applied to every price.
func decodeStoreSequence(data []byte) ([]Config, []Burst) {
	if len(data) < 2 {
		return nil, nil
	}
	base := Providers()[int(data[0])%3]
	if data[0]%4 == 3 {
		base = tieProneConfig(rand.New(rand.NewSource(int64(data[1]))).Intn)
	}
	var cfgs []Config
	var bursts []Burst
	past := false
	for rest := data[2:]; len(rest) >= 5 && len(bursts) < storeSequenceBursts; rest = rest[5:] {
		s := storeStep{rest[0], rest[1], rest[2], rest[3], rest[4]}
		v := int(s.size >> 3)
		var n int
		switch {
		case s.size == pastStoreCap && !past:
			n, past = scheduleStoreCap+1, true
		case s.size%8 == 0:
			n = 1 + v%(storeMin-1)
		case s.size%8 <= 3:
			n = storeMin + 13*v
		case s.size%8 == 4:
			n = overlapDrawMin
		case s.size%8 <= 6:
			n = overlapDrawMin + 1 + 307*v
		default:
			n = overlapDrawMin - 1 - v
		}
		degree := 1 + int(s.degree%8)
		b := Burst{
			Demand:     tandemLight,
			Functions:  n*degree - int(s.degree>>3)%degree,
			Degree:     degree,
			Warm:       int(s.flags>>1) % 16,
			StaggerSec: []float64{0, 0, 1.0 / 16, 1e-3}[s.stagger%4],
			Seed:       int64(s.seed),
		}
		if s.flags&1 != 0 {
			b.Demand = storeOther
		}
		cfg := base
		if s.flags&(1<<5) != 0 {
			cfg, _ = base.WithMemory(base.Shape.MemoryMB / 2) // half of a preset's size is always valid
		}
		f := []float64{1, 2, 0, 1}[s.flags>>6]
		cfg.GBSecondUSD *= f
		cfg.PerRequestUSD *= f
		cfg.Storage.PutRequestUSD *= f
		cfg.Storage.GetRequestUSD *= f
		cfg.Storage.EgressPerGBUSD *= f
		cfgs, bursts = append(cfgs, cfg), append(bursts, b)
	}
	return cfgs, bursts
}

// FuzzStoreSequence runs a short sequence of bursts through the process-wide
// schedule and bill stores, emptied first, and holds each burst to the same
// burst forced through the engine, which never reads them, bit for bit. The
// sequence is what sets a store's state: a burst may hit a schedule that
// another demand, degree, seed, memory size or price stored, hit the schedule
// but miss the bill, outgrow a stored schedule, or be too large to store.
// Bursts of overlapDrawMin or more are followed at GOMAXPROCS > 1 (CI runs
// the corpus under -race at -cpu 1,2): on a stored schedule the follower
// folds behind the draw, and it reads the degree column and the warm flags
// from the first chunk on.
func FuzzStoreSequence(f *testing.F) {
	const (
		followed = 5 // overlapDrawMin + 1
		small    = 1 // storeMin + 13·(size>>3)
	)
	other := byte(1 | 3<<1) // storeOther, warm 3
	light := byte(3 << 1)   // tandemLight, warm 3
	// Another demand stores the schedule but not this demand's bill; the
	// followed hit then folds its bill against the degree column.
	f.Add(encodeStoreSequence(0, 0, storeStep{followed, 0, other, 0, 1}, storeStep{followed, 0, light, 0, 2}))
	// The same at degree 3 with a short last instance, after a packed burst
	// of the same instance count.
	f.Add(encodeStoreSequence(0, 0, storeStep{followed, 2, light, 0, 1}, storeStep{followed, 2 | 1<<3, other, 0, 2}))
	// A longer burst, then a shorter hit at another memory size and doubled
	// prices; then a staggered one below the gate and one above it.
	f.Add(encodeStoreSequence(1, 0,
		storeStep{followed | 8<<3, 0, light, 0, 1}, storeStep{4, 0, light | 1<<5 | 1<<6, 0, 2},
		storeStep{0 | 9<<3, 1, light, 2, 3}, storeStep{small | 20<<3, 1, other, 2, 4}))
	// Zero prices, then the same schedule at preset prices.
	f.Add(encodeStoreSequence(2, 0, storeStep{small | 5<<3, 3, light | 2<<6, 3, 1}, storeStep{small | 5<<3, 3, light, 3, 2}))
	// Tie-prone platforms: the solver stores what it orders and declines the
	// rest, which then store nothing.
	for tie := byte(0); tie < 4; tie++ {
		f.Add(encodeStoreSequence(3, tie, storeStep{small | 7<<3, 2, light, 0, 1}, storeStep{small | 7<<3, 2, other, 1, 2},
			storeStep{small | 30<<3, 1, light, 0, 3}))
	}
	if !raceEnabled && !testing.Short() { // ≈ 0.6 s here, ten times that under the detector
		// Past the whole store: never stored, and a followed burst after it
		// misses.
		f.Add(encodeStoreSequence(0, 0, storeStep{pastStoreCap, 0, light, 0, 1}, storeStep{followed, 0, light, 0, 2}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, bursts := decodeStoreSequence(data)
		resetStores()
		defer resetStores()
		for i, b := range bursts {
			what := fmt.Sprintf("burst %d of %d (%d instances at degree %d, warm %d) on %s",
				i+1, len(bursts), b.Instances(), b.Degree, b.Warm, cfgs[i].Name)
			want, wantErr := Run(forcedEvented(cfgs[i], b.Instances()), b)
			got, err := Run(cfgs[i], b)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, forced through the engine %v", what, err, wantErr)
			}
			if err == nil {
				sameResultBits(t, what, got, want)
			}
		}
	})
}
