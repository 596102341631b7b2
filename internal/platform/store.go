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
// per process, and every Run and RunMixed inside the gate reads them instead
// of computing them again; only the seed's half — the jitter draw, the end
// column and the fold's extrema and compute sums — is left to each run.

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

// schedule is one key's stored solution: the milestone columns of the
// longest burst solved — schedDone, buildDone, shipDone and start, rows
// apiece, in one slab that nothing writes once it is stored — and the
// stages' busy seconds for each instance count run. Busy seconds are kept
// per count, not as per-row running sums: those would cost 24 B a row more.
type schedule struct {
	rows int
	slab []float64
	busy map[int][3]float64
}

// scheduleStoreCap bounds what the schedule store holds, in rows plus busy
// records (≈ 32 B apiece, ≈ 64 MB full): one 10⁶-instance schedule fits
// beside a figure pass's. It is reached only by keys of a caller's choosing;
// a full store is emptied, as core's scaling store is, and a run larger than
// the whole store is not stored.
const scheduleStoreCap = 1 << 21

var schedules = struct {
	sync.Mutex
	m    map[scheduleKey]*schedule
	held int // rows and busy records across m
}{m: map[scheduleKey]*schedule{}}

// schedulePlan is a run's part in the schedule store, settled before its
// columns are allocated: whether it consults the store, under which key, and
// its milestone slab with rows per column — on a hit the stored one, read
// with the busy seconds; on a miss a fresh one, n rows, to solve into and
// store.
type schedulePlan struct {
	on, hit bool
	key     scheduleKey
	slab    []float64
	rows    int
	busy    [3]float64
}

// column returns the first n rows of the plan's milestone column k.
func (p *schedulePlan) column(k, n int) []float64 {
	return p.slab[k*p.rows : k*p.rows+n : k*p.rows+n]
}

// lookupSchedule plans a run of n instances: a hit needs n stored rows and
// the busy seconds of n itself. A miss allocates its slab.
func lookupSchedule(key scheduleKey, n int) schedulePlan {
	p := schedulePlan{on: true, key: key}
	schedules.Lock()
	if s := schedules.m[key]; s != nil && s.rows >= n {
		if p.busy, p.hit = s.busy[n]; p.hit {
			p.slab, p.rows = s.slab, s.rows
		}
	}
	schedules.Unlock()
	if !p.hit {
		p.slab, p.rows = make([]float64, 4*n), n
	}
	return p
}

// storeSchedule records a solved run of n instances, slab its milestone
// columns and busy its stages' busy seconds: the busy seconds join the
// stored entry if that holds n rows already, else the slab replaces it. By
// the prefix property every busy record the entry held stays true of the
// longer slab.
func storeSchedule(key scheduleKey, n int, slab []float64, busy [3]float64) {
	if n >= scheduleStoreCap {
		return
	}
	schedules.Lock()
	defer schedules.Unlock()
	s := schedules.m[key]
	if s == nil {
		s = &schedule{busy: map[int][3]float64{}}
	}
	add := max(n-s.rows, 0) // rows and busy records this adds
	if _, known := s.busy[n]; !known {
		add++
	}
	if schedules.held+add > scheduleStoreCap {
		clear(schedules.m)
		s, schedules.held, add = &schedule{busy: map[int][3]float64{}}, 0, n+1
	}
	if s.rows < n {
		s.rows, s.slab = n, slab
	}
	s.busy[n] = busy
	schedules.m[key] = s
	schedules.held += add
}

// solve fills a tandem burst's milestone columns and the stations' busy
// seconds: on a hit they are the schedule store's already, else the solver
// fills them and, if the run consults the store, they are stored.
func (sc *runScratch) solve(b Burst) bool {
	cp, p := &sc.cp, &sc.plan
	if p.hit {
		cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds = p.busy[0], p.busy[1], p.busy[2]
		return true
	}
	if !cp.solveTandem(b, sc.feed) {
		return false
	}
	if p.on {
		storeSchedule(p.key, sc.batch.n, p.slab, [3]float64{cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds})
	}
	return true
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

// billStoreCap bounds the bill store (≈ 150 B an entry, ≈ 600 KB full); a
// full store is emptied.
const billStoreCap = 4096

var bills = struct {
	sync.Mutex
	m map[billKey]bill
}{m: map[billKey]bill{}}

func lookupBill(key billKey) (bill, bool) {
	bills.Lock()
	b, ok := bills.m[key]
	bills.Unlock()
	return b, ok
}

func storeBill(key billKey, b bill) {
	bills.Lock()
	if len(bills.m) >= billStoreCap {
		clear(bills.m)
	}
	bills.m[key] = b
	bills.Unlock()
}
