package platform

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/workload"
)

// storeStep is one burst of a FuzzStoreSequence input, as the five bytes
// decodeStoreSequence reads.
type storeStep struct{ size, degree, flags, stagger, seed byte }

// The stagger byte's options, above its two stagger bits.
const (
	stepMixed       = 1 << 2 // a RunMixed burst, its bins drawn from the degree byte
	stepInlineFirst = 1 << 3 // a followed Run runs at GOMAXPROCS 1 before 2
	stepFlipShared  = 1 << 4 // the demand's SharedInput flipped
	stepFull        = 1 << 5 // the schedule store brought to its cap first, by another key
	stepPodGrown    = 1 << 6 // pods one instance larger than the platform's
)

const (
	storeSequenceBursts = 4    // each also runs forced through the engine, and one may be millions of instances
	pastStoreCap        = 0xef // the size byte of a burst larger than the whole store
	tracedMax           = 4096 // smaller bursts compare traces too, and run on the closure control plane
)

// storeOther is an application with other I/O than tandemLight.
var storeOther = interfere.Demand{CPUSeconds: 3, MemoryMB: 256, InputMB: 4, OutputMB: 2, ShuffleFraction: 0.5, SharedInput: true}

// storeDemands are the applications a RunMixed bin's functions are drawn from.
var storeDemands = [...]interfere.Demand{tandemLight, storeOther, workload.Video{}.Demand()}

// podsOf is the platform byte's choice of pods of size (2–8).
func podsOf(size byte) byte { return (size - 1) << 2 }

// encodeStoreSequence is decodeStoreSequence's inverse, used to build seeds.
func encodeStoreSequence(platform, tie byte, steps ...storeStep) []byte {
	out := []byte{platform, tie}
	for _, s := range steps {
		out = append(out, s.size, s.degree, s.flags, s.stagger, s.seed)
	}
	return out
}

// storeBurst is a Run of b on cfg or, with bins, a RunMixed of them with b's
// warm prefix, stagger and seed (b holds a function a bin); opts is the step's
// stagger byte.
type storeBurst struct {
	cfg  Config
	b    Burst
	bins []Bin
	opts byte
}

func (s *storeBurst) run(cfg Config, rec obs.Recorder) (*Result, error) {
	if s.bins == nil {
		b := s.b
		b.Recorder = rec
		return Run(cfg, b)
	}
	return RunMixed(cfg, MixedBurst{Bins: s.bins, Warm: s.b.Warm, StaggerSec: s.b.StaggerSec, Seed: s.b.Seed, Recorder: rec})
}

// decodeStoreSequence reads a platform and up to storeSequenceBursts bursts
// on it; a non-nil platform replaces the input's. The platform byte's low two
// bits pick a preset (0–2) or a tie-prone platform drawn from the next byte
// (3), and on a preset its next three bits the pods: the preset's own (0) or
// 2–8. The size byte's low three bits pick a class — below storeMin (0), from
// storeMin to a few hundred (1–3), at overlapDrawMin (4), one to a few
// follower chunks above it (5–6), just below it (7) — and its high five bits
// the count inside the class; pastStoreCap, once an input, is a Run one
// instance past scheduleStoreCap (a second's work). The flags byte holds the demand
// (bit 0: storeOther, else tandemLight), the warm prefix (bits 1–4), the
// memory size (bit 5: half) and a price factor (bits 6–7: ×1, ×2, ×0, ×1)
// applied to every price. A RunMixed bin holds 1–4 functions of storeDemands.
func decodeStoreSequence(data []byte, platform *Config) []storeBurst {
	if len(data) < 2 {
		return nil
	}
	var base Config
	switch {
	case platform != nil:
		base = *platform
	case data[0]%4 == 3:
		base = tieProneConfig(rand.New(rand.NewSource(int64(data[1]))).Intn)
	default:
		base = Providers()[data[0]%4]
	}
	if pods := int(data[0]>>2) % 8; pods > 0 && (platform != nil || data[0]%4 != 3) {
		base.PodSize = pods + 1
	}
	var bursts []storeBurst
	past := false
	for rest := data[2:]; len(rest) >= 5 && len(bursts) < storeSequenceBursts; rest = rest[5:] {
		s := storeStep{rest[0], rest[1], rest[2], rest[3], rest[4]}
		v := int(s.size >> 3)
		var n int
		switch {
		case s.size == pastStoreCap && !past:
			n, past = scheduleStoreCap+1, true
			s.stagger &^= stepMixed
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
		sb := storeBurst{cfg: base, opts: s.stagger, b: Burst{
			Demand:     tandemLight,
			Functions:  n*degree - int(s.degree>>3)%degree,
			Degree:     degree,
			Warm:       int(s.flags>>1) % 16,
			StaggerSec: []float64{0, 0, 1.0 / 16, 1e-3}[s.stagger%4],
			Seed:       int64(s.seed),
		}}
		if s.flags&1 != 0 {
			sb.b.Demand = storeOther
		}
		if s.stagger&stepFlipShared != 0 {
			sb.b.Demand.SharedInput = !sb.b.Demand.SharedInput
		}
		if s.stagger&stepMixed != 0 {
			rng := rand.New(rand.NewSource(int64(s.degree)))
			sb.bins, sb.b.Functions, sb.b.Degree = make([]Bin, n), n, 1
			for i := range sb.bins {
				for k := rng.Intn(4); k >= 0; k-- {
					sb.bins[i].Demands = append(sb.bins[i].Demands, storeDemands[rng.Intn(len(storeDemands))])
				}
			}
		}
		if s.stagger&stepPodGrown != 0 {
			sb.cfg.PodSize = max(base.PodSize, 1) + 1
		}
		if s.flags&(1<<5) != 0 {
			sb.cfg, _ = sb.cfg.WithMemory(base.Shape.MemoryMB / 2) // half of a preset's size is always valid
		}
		c := &sb.cfg
		for _, price := range []*float64{&c.GBSecondUSD, &c.PerRequestUSD, &c.Storage.PutRequestUSD, &c.Storage.GetRequestUSD, &c.Storage.EgressPerGBUSD} {
			*price *= []float64{1, 2, 0, 1}[s.flags>>6]
		}
		bursts = append(bursts, sb)
	}
	return bursts
}

// storeSequenceSeeds is FuzzStoreSequence's seed corpus: the store states a
// burst meets — empty, itself (a followed Run's second leg), a longer or a
// shorter burst, another seed, application, memory size, degree, warm prefix,
// stagger or pod size, a full store — for Run and RunMixed, small and
// followed, on presets with and without pods and on tie-prone platforms.
var storeSequenceSeeds = func() [][]byte {
	const followed, small = 5, 1             // overlapDrawMin + 1, storeMin + 13·(size>>3)
	other, light := byte(1|3<<1), byte(3<<1) // storeOther and tandemLight, warm 3
	seeds := [][]byte{
		// Another application's schedule, not its bill: the followed hit folds the bill against the degrees.
		encodeStoreSequence(0, 0, storeStep{followed, 0, other, 0, 1}, storeStep{followed, 0, light, 0, 2}),
		// Another degree with a short last instance at the same instance count.
		encodeStoreSequence(0, 0, storeStep{followed, 2, light, 0, 1}, storeStep{followed, 2 | 1<<3, other, 0, 2}),
		// A longer burst, a shorter hit at another memory size and doubled prices, staggered ones.
		encodeStoreSequence(1, 0,
			storeStep{followed | 8<<3, 0, light, 0, 1}, storeStep{4, 0, light | 1<<5 | 1<<6, 0, 2},
			storeStep{0 | 9<<3, 1, light, 2, 3}, storeStep{small | 20<<3, 1, other, 2, 4}),
		// Zero prices, then the same schedule at preset prices.
		encodeStoreSequence(2, 0, storeStep{small | 5<<3, 3, light | 2<<6, 3, 1}, storeStep{small | 5<<3, 3, light, 3, 2}),
	}
	for tie := byte(0); tie < 4; tie++ { // tie-prone platforms whose solver orders every tie
		seeds = append(seeds, encodeStoreSequence(3, tie, storeStep{small | 7<<3, 2, light, 0, 1},
			storeStep{small | 7<<3, 2, other, 1, 2}, storeStep{small | 30<<3, 1, light, 0, 3}))
	}
	return append(seeds,
		// Followed, in pods: inline first, a longer burst behind the solver, itself after a full store.
		encodeStoreSequence(podsOf(4), 0, storeStep{followed, 0, light, stepInlineFirst, 1},
			storeStep{followed | 9<<3, 0, light, 0, 2}, storeStep{followed, 0, light, stepFull, 3}),
		// Tie-prone: followed, another application inline first, then RunMixed.
		encodeStoreSequence(3, 9, storeStep{followed, 0, light, 0, 1}, storeStep{followed, 0, other, stepInlineFirst, 2},
			storeStep{small | 9<<3, 1, light, stepMixed, 3}, storeStep{small | 9<<3, 2, light, stepMixed, 4}),
		// Another seed, memory size, and application that differs only in sharing its input.
		encodeStoreSequence(podsOf(8), 0, storeStep{small | 7<<3, 2, light, 0, 1}, storeStep{small | 7<<3, 2, light, 0, 2},
			storeStep{small | 7<<3, 2, light | 1<<5, 0, 3}, storeStep{small | 7<<3, 2, light, stepFlipShared, 4}),
		// Another application, degree, and last instance's degree, in warm-led pods.
		encodeStoreSequence(1|podsOf(5), 0, storeStep{small | 4<<3, 0, light, 3, 1}, storeStep{small | 4<<3, 0, other, 3, 2},
			storeStep{small | 4<<3, 3 | 2<<3, light, 3, 3}, storeStep{small | 4<<3, 3 | 1<<3, light, 3, 4}),
		// Another warm prefix, stagger and pod size, where a 1/16 s stagger outlasts the scheduler.
		encodeStoreSequence(3, 1, storeStep{small | 8<<3, 0, light, 0, 1}, storeStep{small | 8<<3, 0, 5 << 1, 0, 1},
			storeStep{small | 8<<3, 0, light, 2, 1}, storeStep{small | 8<<3, 0, light, stepPodGrown, 1}),
		// RunMixed in pods: itself, another application after a full store, then a Run.
		encodeStoreSequence(2|podsOf(4), 0, storeStep{small | 6<<3, 3, light, stepMixed, 1}, storeStep{small | 6<<3, 3, light, stepMixed, 1},
			storeStep{small | 6<<3, 4, light, stepMixed | stepFull, 2}, storeStep{small | 6<<3, 0, light, 0, 3}),
		// Tie-prone, every burst declined: a Run, RunMixed, another seed.
		encodeStoreSequence(3, 142, storeStep{small | 10<<3, 2, 4 << 1, 0, 1}, storeStep{small | 10<<3, 1, 4 << 1, stepMixed, 2},
			storeStep{small | 10<<3, 2, 4 << 1, stepMixed, 3}),
		// Tie-prone: stored, a longer burst declined (nothing stored), a hit, a followed one declined.
		encodeStoreSequence(3, 109, storeStep{small | 7<<3, 0, light, 0, 1}, storeStep{small | 20<<3, 0, light, 0, 2},
			storeStep{small | 7<<3, 0, other, 0, 3}, storeStep{followed, 0, light, 0, 4}),
		// Tie-prone and staggered: longer, shorter, another degree and memory size after a full store.
		encodeStoreSequence(3, 86, storeStep{small | 20<<3, 0, light, 2, 1}, storeStep{small | 10<<3, 0, light, 2, 2},
			storeStep{small | 25<<3, 0, light, 2, 3}, storeStep{small | 10<<3, 3 | 3<<3, light | 1<<5, 2 | stepFull, 4}),
	)
}()

// scheduleRecord returns the record of a schedule of n instances stored
// under key, if its rows and its instance count's record are in the store.
func scheduleRecord(key scheduleKey, n int) (countRecord, bool) {
	schedules.Lock()
	defer schedules.Unlock()
	s := schedules.m[key]
	if s == nil || s.rows < n {
		return countRecord{}, false
	}
	r, ok := s.counts[n]
	return r, ok
}

// storeOutcome is one run of a storeBurst, with its JSONL and then its
// Chrome trace when it was traced.
type storeOutcome struct {
	res   *Result
	err   error
	trace []byte
}

// sameOutcome requires two runs to fail alike, or to agree on every Result
// bit and every trace byte.
func sameOutcome(t *testing.T, what string, got, want storeOutcome) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, forced through the engine %v", what, got.err, want.err)
	} else if want.err == nil {
		sameRun(t, what, got.res, got.trace, want.res, want.trace)
	}
}

// checkStoreSequence is FuzzStoreSequence's body, on emptied stores. Each
// burst runs forced through the engine, then through the gate (a followed Run
// at GOMAXPROCS 2, one follower folding it unless the solver declines, and at
// 1) and below tracedMax on the closure control plane, each as the forced one.
// An ordered burst leaves its schedule and a Run its bill; caps hold.
func checkStoreSequence(t *testing.T, bursts []storeBurst) {
	t.Helper()
	resetStores()
	defer resetStores()
	for i := range bursts {
		s := &bursts[i]
		n := s.b.Instances()
		what := fmt.Sprintf("burst %d of %d (%d functions in %d instances, %d bins, warm %d, stagger %g, seed %d) on %s, pods of %d",
			i+1, len(bursts), s.b.Functions, n, len(s.bins), s.b.Warm, s.b.StaggerSec, s.b.Seed, s.cfg.Name, s.cfg.PodSize)
		if s.opts&stepFull != 0 { // as a caller's flood would: the next schedule stored empties it
			storeSchedule(scheduleKey{warm: -1}, scheduleStoreCap-1, nil, countRecord{})
		}
		run := func(cfg Config) (o storeOutcome) {
			var trace bytes.Buffer
			var rec obs.Recorder
			mem := &obs.Memory{}
			if n < tracedMax {
				rec = obs.Multi(obs.NewJSONL(&trace), mem)
			}
			o.res, o.err = s.run(cfg, rec)
			if err := obs.WriteChromeTrace(&trace, mem.Bursts()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			o.trace = trace.Bytes()
			return o
		}
		want := run(forcedEvented(s.cfg, n))
		procs := []int{runtime.GOMAXPROCS(0)}
		if s.bins == nil && n >= overlapDrawMin {
			procs = []int{2, 1}
			if s.opts&stepInlineFirst != 0 {
				procs = []int{1, 2}
			}
		}
		declined := false
		for _, p := range procs {
			withProcs(p, func() {
				fallbacks := tandemFallbacks.Load()
				var got storeOutcome
				folded := countFolded(func() { got = run(s.cfg) })
				declined = declined || tandemFallbacks.Load() != fallbacks
				at := fmt.Sprintf("%s at GOMAXPROCS %d", what, p)
				sameOutcome(t, at, got, want)
				if follows := want.err == nil && s.bins == nil && !declined && overlapsDraw(s.cfg, n); folded > 1 || (folded == 1) != follows {
					t.Fatalf("%s: %d followers folded the burst (followed: %v)", at, folded, follows)
				}
			})
		}
		if n < tracedMax {
			var closure storeOutcome
			withClosureControlPlane(func() { closure = run(s.cfg) })
			sameOutcome(t, what+" on the closure control plane", closure, want)
		}
		if want.err == nil && !declined && storesRun(&s.cfg, n) {
			if r, ok := scheduleRecord(scheduleKeyOf(&s.cfg, s.b.Warm, s.b.StaggerSec), n); n < scheduleStoreCap && !ok {
				t.Fatalf("%s: its schedule is not stored", what)
			} else if st := want.res.ScalingTime(); ok && math.Float64bits(r.maxStart) != math.Float64bits(st) {
				t.Fatalf("%s: its record's max start %v, its ScalingTime %v", what, r.maxStart, st)
			}
			last := s.b.Functions - (n-1)*s.b.Degree
			if _, paid := bills.lookup(billKeyOf(&s.cfg, &s.b.Demand, s.b.Degree, last, n)); s.bins == nil && !paid {
				t.Fatalf("%s: its bill is not stored", what)
			}
		}
		if _, held, billed := storeSizes(t); held > scheduleStoreCap || billed > billStoreCap {
			t.Fatalf("%s: the stores hold %d rows and records and %d bills, caps %d and %d",
				what, held, billed, scheduleStoreCap, billStoreCap)
		}
	}
}

// FuzzStoreSequence runs a short sequence of bursts through the process-wide
// stores (checkStoreSequence), which sets each one's store state: a burst may
// hit a schedule another demand, degree, seed, memory size, price or kind
// stored, miss the bill, outgrow a stored schedule, meet a full store, or be
// too large to store. On a stored schedule a followed Run's follower folds
// behind the draw, reading the degrees and warm flags from the first chunk
// on (CI runs the corpus under -race).
func FuzzStoreSequence(f *testing.F) {
	for _, seed := range storeSequenceSeeds {
		f.Add(seed)
	}
	if !raceEnabled && !testing.Short() { // ≈ 0.6 s here, ten times that under the detector
		// Past the whole store: never stored, and a followed burst after it misses.
		f.Add(encodeStoreSequence(0, 0, storeStep{pastStoreCap, 0, 3 << 1, 0, 1}, storeStep{5, 0, 3 << 1, 0, 2}))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStoreSequence(t, decodeStoreSequence(data, nil)) })
}
