package platform

import (
	"sync"

	"repro/internal/interfere"
	"repro/internal/storage"
)

// A dice-free burst's schedule is a platform property (DESIGN §12). The
// tandem solver reads no execution time and no random stream: a burst's four
// milestone columns and its stages' busy seconds depend only on the control
// plane, the warm prefix, the stagger and the instance count, and row j only
// on the rows before it. Its storage and request fees depend only on the
// pricing, the demand's I/O and the degrees. Both halves are kept here, once
// per process, for every Run and RunMixed inside the gate and for ScalingTime
// (Eq. 2's probe); only the seed's half — the jitter draw, the end column and
// the fold's extrema and compute sums — is left to each run. Of the schedule
// only the start column is kept, the one a run reads; the other three
// milestones are solved again when a Result is asked for them (resolved).

// storeMin is the smallest burst that consults the stores: below it a lookup
// costs more than the solve and the allocation it saves (DESIGN §12 has the
// ladder it was read from). One-instance probes never look up.
const storeMin = 16

// storesRun reports whether a burst of n instances on cfg consults the
// stores: the solver runs and the burst is worth a lookup.
func storesRun(cfg *Config, n int) bool {
	return n >= storeMin && cfg.tandem()
}

// scheduleKey is the solver's read set besides the instance count: each
// stage's servers and constants, the boot and warm-start timers, the pod
// size, the warm prefix and the stagger. Memory, prices, jitter and the
// demand are not in it, so a WithMemory resize or another application
// shares its platform's schedule.
type scheduleKey struct {
	sched, build, ship stageKey
	boot, warmStart    float64
	podSize, warm      int
	stagger            float64
}

type stageKey struct {
	servers      int
	base, growth float64
}

func scheduleKeyOf(cfg *Config, warm int, stagger float64) scheduleKey {
	return scheduleKey{
		sched:     stageKey{cfg.SchedServers, cfg.SchedBaseSec, cfg.SchedPerBusySec},
		build:     stageKey{cfg.BuildServers, cfg.BuildSec, cfg.BuildGrowthSec},
		ship:      stageKey{cfg.ShipServers, cfg.ShipSec, cfg.ShipGrowthSec},
		boot:      cfg.BootSec,
		warmStart: cfg.WarmStartSec,
		podSize:   cfg.PodSize,
		warm:      warm,
		stagger:   stagger,
	}
}

// schedule is one key's stored solution: the start column of the longest
// burst solved, rows long, in a slab that nothing writes once it is stored,
// and a record for each instance count run. Records are kept per count, not
// as per-row running sums: those would cost 24 B a row more.
type schedule struct {
	rows   int
	slab   []float64
	counts map[int]countRecord
}

// countRecord is what a schedule keeps of an instance count n: the stages'
// busy seconds and the latest of start[:n], that burst's ScalingTime.
type countRecord struct {
	busy     [3]float64
	maxStart float64
}

// maxStart is the fold's ScalingTime over a start column: the same
// comparison from the same zero, in the same order, so the same bits.
func maxStart(start []float64) float64 {
	m := 0.0
	for _, s := range start {
		if s > m {
			m = s
		}
	}
	return m
}

// scheduleStoreCap bounds what the schedule store holds, in rows plus count
// records (8 B a row, 32 B a record; ≈ 16 MB full): one 10⁶-instance
// schedule, 8 MB, fits beside a figure pass's. It is reached only by keys of
// a caller's choosing; a full store is emptied, as the bounded maps are, and
// a run larger than the whole store is not stored.
const scheduleStoreCap = 1 << 21

var schedules = struct {
	sync.Mutex
	m    map[scheduleKey]*schedule
	held int // rows and count records across m
}{m: map[scheduleKey]*schedule{}}

// schedulePlan is a run's part in the schedule store, settled before its
// columns are allocated: whether it consults the store, under which key, and
// its start column, n rows — on a hit a prefix of the stored slab, read with
// the busy seconds; on a miss a fresh one to solve into and store.
type schedulePlan struct {
	on, hit bool
	key     scheduleKey
	start   []float64
	busy    [3]float64
}

// lookupSchedule plans a run of n instances: a hit needs n's record, and
// with it n stored rows. A miss allocates its start column.
func lookupSchedule(key scheduleKey, n int) schedulePlan {
	p := schedulePlan{on: true, key: key}
	schedules.Lock()
	if s := schedules.m[key]; s != nil {
		var r countRecord
		if r, p.hit = s.counts[n]; p.hit {
			p.busy, p.start = r.busy, s.slab[:n:n]
		}
	}
	schedules.Unlock()
	if !p.hit {
		p.start = make([]float64, n)
	}
	return p
}

// storeSchedule records a solved run of n instances, slab its start column
// and r its record: the record joins the stored entry if that holds n rows
// already, else the slab replaces it. By the prefix property every record the
// entry held stays true of the longer slab.
func storeSchedule(key scheduleKey, n int, slab []float64, r countRecord) {
	if n >= scheduleStoreCap {
		return
	}
	schedules.Lock()
	defer schedules.Unlock()
	s := schedules.m[key]
	if s == nil {
		s = &schedule{counts: map[int]countRecord{}}
	}
	add := max(n-s.rows, 0) // rows and records this adds
	if _, known := s.counts[n]; !known {
		add++
	}
	if schedules.held+add > scheduleStoreCap {
		clear(schedules.m)
		s, schedules.held, add = &schedule{counts: map[int]countRecord{}}, 0, n+1
	}
	if s.rows < n {
		s.rows, s.slab = n, slab
	}
	s.counts[n] = r
	schedules.m[key] = s
	schedules.held += add
}

// recordedScalingTime is the stored record's ScalingTime of a burst of n
// instances on cfg inside the stores' gate, without warm prefix or stagger.
func recordedScalingTime(cfg *Config, n int) (float64, bool) {
	if !storesRun(cfg, n) {
		return 0, false
	}
	schedules.Lock()
	defer schedules.Unlock()
	if s := schedules.m[scheduleKeyOf(cfg, 0, 0)]; s != nil {
		r, ok := s.counts[n]
		return r.maxStart, ok
	}
	return 0, false
}

// solve fills a tandem burst's milestone columns and the stations' busy
// seconds, for a burst on cfg staggered by stagger: on a hit they are the
// schedule store's already, else the solver fills them and, if the run
// consults the store, its start column is stored.
func (sc *runScratch) solve(cfg *Config, stagger float64) bool {
	cp, p := &sc.cp, &sc.plan
	if p.hit {
		cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds = p.busy[0], p.busy[1], p.busy[2]
		return true
	}
	if !cp.solveTandem(cfg, stagger, sc.feed) {
		return false
	}
	if n := sc.batch.n; p.on {
		storeSchedule(p.key, n, p.start, countRecord{
			busy:     [3]float64{cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds},
			maxStart: maxStart(p.start),
		})
	}
	return true
}

// resolved returns r's columns with all four milestones. A run the solver
// finished inside the stores' gate keeps start alone (resetPlanned); for its
// row view, its spans and a sharded merge the other three are solved again,
// into fresh columns, by the same solver over r's Config, warm flags, stagger
// and instance count, so in the same bits. It writes nothing of r's and
// neither reads nor fills a store.
func (r *Result) resolved() *instanceColumns {
	if r.cols.schedDone != nil {
		return &r.cols
	}
	c := r.cols
	c.withMilestones()
	var cp controlPlane
	cp.ib = &instanceBatch{instanceColumns: c}
	cp.ib.start = make([]float64, c.n) // r's own may be the store's: never written
	if !cp.solveTandem(&r.Config, r.Burst.StaggerSec, nil) {
		panic("platform: a solved schedule failed to solve again")
	}
	return &c
}

// billKey is what a dice-free burst's storage and request fees read: the
// store's and the platform's per-request prices, the demand's I/O, the full
// and last instances' degrees, and the instance count.
type billKey struct {
	pricing           storage.Pricing
	perRequestUSD     float64
	inputMB, outputMB float64
	shuffleFraction   float64
	sharedInput       bool
	full, last, n     int
}

func billKeyOf(cfg *Config, d *interfere.Demand, full, last, n int) billKey {
	return billKey{
		pricing: cfg.Storage, perRequestUSD: cfg.PerRequestUSD,
		inputMB: d.InputMB, outputMB: d.OutputMB, shuffleFraction: d.ShuffleFraction, sharedInput: d.SharedInput,
		full: full, last: last, n: n,
	}
}

// bill is a stored burst's request and storage fees.
type bill struct{ requestUSD, storageUSD float64 }

// boundedMap is a process-wide map of at most limit entries; a full map is
// emptied.
type boundedMap[K comparable, V any] struct {
	sync.Mutex
	m     map[K]V
	limit int
}

func (bm *boundedMap[K, V]) lookup(key K) (V, bool) {
	bm.Lock()
	v, ok := bm.m[key]
	bm.Unlock()
	return v, ok
}

func (bm *boundedMap[K, V]) store(key K, v V) {
	bm.Lock()
	if len(bm.m) >= bm.limit {
		clear(bm.m)
	}
	bm.m[key] = v
	bm.Unlock()
}

// billStoreCap bounds the bill store (≈ 150 B an entry, ≈ 600 KB full).
const billStoreCap = 4096

var bills = &boundedMap[billKey, bill]{m: map[billKey]bill{}, limit: billStoreCap}

// probeKey keys a scaling probe no schedule record answers (fault dice, a
// throttle, n < storeMin, a declined burst): it may read any of the Config.
type probeKey struct {
	cfg  Config
	seed int64
	n    int
}

// probeStoreCap bounds the probe store (≈ 400 B an entry, ≈ 400 KB full); a
// quick figure pass asks it for 18 probes, ExtThrottle's.
const probeStoreCap = 1024

var probes = &boundedMap[probeKey, float64]{m: map[probeKey]float64{}, limit: probeStoreCap}

// ScalingTime is Eq. 2's probe (PAPER.md §2.2): the scaling time of n no-op
// functions on cfg, one an instance, seeded seed + n·7919 — that Run's
// ScalingTime, bit for bit, or its error. After Run's validation, a dice-free
// burst inside the stores' gate reads its schedule's record, whatever the
// seed, prices or memory size; any other reads the probe store; a miss runs.
func ScalingTime(cfg Config, seed int64, n int) (float64, error) {
	b := Burst{Demand: interfere.Demand{CPUSeconds: 0.1, MemoryMB: 128}, Functions: n, Degree: 1, Seed: seed + int64(n)*7919}
	if _, err := validateRun(&cfg, &b); err != nil {
		return 0, err
	}
	if st, ok := recordedScalingTime(&cfg, n); ok {
		return st, nil
	}
	key := probeKey{cfg, seed, n}
	if st, ok := probes.lookup(key); ok {
		return st, nil
	}
	res, err := Run(cfg, b)
	if err != nil {
		return 0, err
	}
	st := res.ScalingTime()
	if _, ok := recordedScalingTime(&cfg, n); !ok {
		probes.store(key, st)
	}
	return st, nil
}
