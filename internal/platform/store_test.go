package platform

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// The stores (store.go, DESIGN §12) beside FuzzStoreSequence: bursts outside
// the gate never touch them, they keep their caps, and their keys hold every
// field the solver and the bill read.

// resetStores empties the stores, as a full one is emptied.
func resetStores() {
	schedules.Lock()
	clear(schedules.m)
	schedules.held = 0
	schedules.Unlock()
	bills.reset()
	probes.reset()
}

func (bm *boundedMap[K, V]) reset() {
	bm.Lock()
	clear(bm.m)
	bm.Unlock()
}

// storeSizes reports the schedule store's keys and held rows and records and
// the bill store's entries, after checking held against the entries.
func storeSizes(t *testing.T) (keys, held, billed int) {
	t.Helper()
	schedules.Lock()
	defer schedules.Unlock()
	sum := 0
	for _, s := range schedules.m {
		sum += s.rows + len(s.counts)
	}
	if sum != schedules.held {
		t.Fatalf("the schedule store counts %d rows and records, its entries hold %d", schedules.held, sum)
	}
	bills.Lock()
	defer bills.Unlock()
	return len(schedules.m), schedules.held, len(bills.m)
}

// TestScheduleStoreGate: faulty and throttled platforms and one-instance
// probes never touch either store; a burst large enough for the follower
// leaves exactly one schedule and one bill behind.
func TestScheduleStoreGate(t *testing.T) {
	defer resetStores()
	faulty := AWSLambda()
	faulty.ExecTimeoutSec = 800 // never fires
	throttled := AWSLambda()
	throttled.ConcurrencyLimit = 10
	resetStores()
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"faulty", faulty, 500}, {"throttled", throttled, 500},
		{"one instance", AWSLambda(), 1}, {"below storeMin", AWSLambda(), storeMin - 1},
	} {
		b := Burst{Demand: tandemLight, Functions: tc.n, Degree: 1, Seed: 3}
		if _, err := Run(tc.cfg, b); err != nil {
			t.Fatal(err)
		}
		bins := make([]Bin, tc.n)
		for i := range bins {
			bins[i].Demands = []interfere.Demand{tandemLight}
		}
		if _, err := RunMixed(tc.cfg, MixedBurst{Bins: bins, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		b.Functions *= 4
		if _, err := RunSharded(tc.cfg, b, Sharding{Shards: 4}); err != nil {
			t.Fatal(err)
		}
		if keys, held, billed := storeSizes(t); keys+held+billed != 0 {
			t.Fatalf("%s bursts left %d schedules (%d rows and records) and %d bills in the stores", tc.name, keys, held, billed)
		}
	}
	withProcs(2, func() {
		b := Burst{Demand: tandemLight, Functions: overlapDrawMin, Degree: 1, Seed: 3}
		if folded := countFolded(func() {
			if _, err := Run(AWSLambda(), b); err != nil {
				t.Fatal(err)
			}
		}); folded != 1 {
			t.Fatalf("the followed burst was folded by %d followers, want 1", folded)
		}
		if keys, held, billed := storeSizes(t); keys != 1 || held != b.Functions+1 || billed != 1 {
			t.Fatalf("a followed burst left %d schedules (%d rows and records) and %d bills, want 1 (%d) and 1",
				keys, held, billed, b.Functions+1)
		}
	})
}

// TestScheduleStoreConcurrentFills fills one key from parallel.Map: bursts
// of several lengths and seeds race to miss, solve, store and replace, and
// each must still be the burst forced through the engine (run under -race in
// CI, where a write to a stored slab is a reported race).
func TestScheduleStoreConcurrentFills(t *testing.T) {
	defer resetStores()
	cfg := AWSLambda()
	cfg.PodSize = 3
	burst := func(i int) Burst {
		return Burst{Demand: tandemLight, Functions: 3 * (storeMin + 41*(i%7)), Degree: 3, Warm: 5, Seed: int64(i)}
	}
	const tasks = 48
	want := make([]*Result, tasks)
	for i := range want {
		res, err := Run(forcedEvented(cfg, math.MaxInt32), burst(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{2, 8} {
		resetStores()
		got, err := parallel.Map(context.Background(), tasks, func(_ context.Context, i int) (*Result, error) {
			return Run(cfg, burst(i))
		}, parallel.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			sameResultBits(t, fmt.Sprintf("task %d of %d at %d workers", i, tasks, workers), got[i], want[i])
		}
		if keys, held, _ := storeSizes(t); keys != 1 || held != storeMin+41*6+7 {
			t.Fatalf("%d workers: %d keys holding %d rows and records, want 1 holding %d", workers, keys, held, storeMin+41*6+7)
		}
	}
}

// TestScheduleStoreHoldsStart: a stored entry's slab is its rows' start
// column, exactly — the solver's own, solved with every milestone column —
// whether a burst first stored it or a longer one replaced it, and a shorter
// burst's hit leaves it as it was.
func TestScheduleStoreHoldsStart(t *testing.T) {
	defer resetStores()
	resetStores()
	cfg := AWSLambda()
	cfg.PodSize = 3
	key, rows := scheduleKeyOf(&cfg, 5, 0), 0
	for _, n := range []int{200, 700, 200} {
		rows = max(rows, n)
		b := Burst{Demand: tandemLight, Functions: n, Degree: 1, Warm: 5, Seed: int64(n)}
		if _, err := Run(cfg, b); err != nil {
			t.Fatal(err)
		}
		schedules.Lock()
		s := schedules.m[key]
		schedules.Unlock()
		if s == nil || s.rows != rows || len(s.slab) != rows {
			t.Fatalf("after a burst of %d: the entry does not hold %d rows", n, rows)
		}
		long := b
		long.Functions = rows
		if want := solvedSchedule(t, cfg, long)[3*rows : 4*rows]; !slicesEqualBits(s.slab, want) {
			t.Fatalf("after a burst of %d: the stored slab of %d rows is not the solver's start column", n, rows)
		}
	}
}

// TestStoredTimelinesConcurrent: goroutines asking one stored Result for its
// row view at once each solve its three absent milestone columns again, and
// must all get the forced-evented run's rows (CI runs it under -race, where a
// write to the Result or the store is a reported race).
func TestStoredTimelinesConcurrent(t *testing.T) {
	defer resetStores()
	resetStores()
	cfg := AWSLambda()
	cfg.PodSize = 4
	b := Burst{Demand: tandemLight, Functions: 3 * 600, Degree: 3, Warm: 7, StaggerSec: 0.25, Seed: 5}
	want, err := Run(forcedEvented(cfg, math.MaxInt32), b)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for range 2 { // a miss stores the schedule, and the hit reads it
		if res, err = Run(cfg, b); err != nil {
			t.Fatal(err)
		}
	}
	if res.cols.schedDone != nil {
		t.Fatal("the stored Result carries schedDone: the test proves nothing")
	}
	wantRows := want.Timelines()
	const readers = 8
	got := make([][]Timeline, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = res.Timelines()
		}()
	}
	wg.Wait()
	for g, rows := range got {
		if !reflect.DeepEqual(rows, wantRows) { // times here are never NaN
			t.Fatalf("reader %d of %d: the stored Result's rows differ from the forced-evented run's", g+1, readers)
		}
	}
}

// TestScheduleStoreCap: the stores hold at most scheduleStoreCap rows and
// records and billStoreCap bills, each emptied when full, the whole store's
// rows are not stored, and a burst after the clear is the burst before it.
// The callers are synthetic: keys no burst has, slabs never read.
func TestScheduleStoreCap(t *testing.T) {
	defer resetStores()
	resetStores()
	cfg := AWSLambda()
	b := Burst{Demand: tandemLight, Functions: 300, Degree: 1, Seed: 9}
	before, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; ; k++ {
		if _, stored := scheduleRecord(scheduleKeyOf(&cfg, 0, 0), b.Functions); !stored {
			break
		}
		if k > 8 {
			t.Fatalf("schedules of %d rows never emptied the schedule store", k*scheduleStoreCap/8)
		}
		storeSchedule(scheduleKey{warm: -1 - k}, scheduleStoreCap/8, nil, countRecord{})
		if _, held, _ := storeSizes(t); held > scheduleStoreCap {
			t.Fatalf("the schedule store holds %d rows and records, cap %d", held, scheduleStoreCap)
		}
	}
	keys, held, _ := storeSizes(t)
	storeSchedule(scheduleKey{warm: -1}, scheduleStoreCap, nil, countRecord{})
	if k, h, _ := storeSizes(t); k != keys || h != held {
		t.Fatalf("a schedule of %d rows, the whole store, was stored: %d keys holding %d, had %d holding %d",
			scheduleStoreCap, k, h, keys, held)
	}
	for i := 0; i < billStoreCap; i++ { // with the burst's own bill, one past the cap
		bills.store(billKey{n: -1 - i}, bill{})
	}
	if _, paid := bills.lookup(billKeyOf(&cfg, &b.Demand, 1, 1, b.Functions)); paid {
		t.Fatalf("%d bills never emptied the bill store", billStoreCap+1)
	}
	if _, _, billed := storeSizes(t); billed > billStoreCap {
		t.Fatalf("the bill store holds %d bills, cap %d", billed, billStoreCap)
	}
	after, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	sameResultBits(t, "a burst after the stores were emptied", after, before)
}

// fieldPaths lists the leaf fields of v's type as dotted paths, with a
// setter that gives each a value other than the one it holds.
func fieldPaths(t *testing.T, prefix string, v reflect.Value, visit func(path string, mutate func())) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, path := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			fieldPaths(t, path+".", f, visit)
		case reflect.Float64:
			visit(path, func() { f.SetFloat(f.Float()*1.5 + 0.125) })
		case reflect.Int, reflect.Int64:
			visit(path, func() { f.SetInt(f.Int() + 1) })
		case reflect.Bool:
			visit(path, func() { f.SetBool(!f.Bool()) })
		case reflect.String:
			visit(path, func() { f.SetString(f.String() + "′") })
		case reflect.Interface:
			visit(path, func() { f.Set(reflect.ValueOf(obs.NewJSONL(new(bytes.Buffer)))) })
		default:
			t.Fatalf("%s: no mutation for a %s field", path, f.Kind())
		}
	}
}

// solvedSchedule runs the tandem solver itself on cfg and b — no store, no
// gate — and returns the four milestone columns, end to end, and the stages'
// busy seconds.
func solvedSchedule(t *testing.T, cfg Config, b Burst) []float64 {
	t.Helper()
	n := b.Instances()
	sc := new(runScratch)
	sc.batch.reset(n, false)
	for i := range sc.batch.flags[:min(b.Warm, n)] {
		sc.batch.flags[i] |= flagWarm
	}
	cp := &sc.cp
	if cp.ib = &sc.batch; !cp.solveTandem(&cfg, b.StaggerSec, nil) {
		t.Fatalf("the solver declined the burst")
	}
	c := &sc.batch
	return slices.Concat(c.schedDone, c.buildDone, c.shipDone, c.start,
		[]float64{cp.sched.BusySeconds, cp.build.BusySeconds, cp.ship.BusySeconds})
}

// TestScheduleStoreKeyComplete classifies every field of Config, Burst and
// interfere.Demand. A field outside the schedule key must leave a solved
// schedule bit-identical when it changes, and one inside it must change the
// key; a field outside the bill key must leave StorageUSD and RequestUSD as
// they were, and one inside must change that key. A field added to any of
// the three structs fails here until it is classified.
func TestScheduleStoreKeyComplete(t *testing.T) {
	defer resetStores()
	// inSchedule and inBill are the key fields; gate names the fields that
	// close the stores' gate, where the fees stop being seed-independent;
	// every other listed field is neither.
	const (
		neither = iota
		inSchedule
		inBill
		gate
	)
	classes := map[string]int{
		"Config.Name": neither, "Config.Shape.Cores": neither, "Config.Shape.MemoryMB": neither,
		"Config.Shape.MemBWMBps": neither, "Config.Shape.ContentionRate": neither, "Config.Shape.BWWeight": neither,
		"Config.Shape.CrossDiscount": neither, "Config.Shape.IsolationFactor": neither,
		"Config.SchedBaseSec": inSchedule, "Config.SchedPerBusySec": inSchedule, "Config.SchedServers": inSchedule,
		"Config.BuildSec": inSchedule, "Config.BuildGrowthSec": inSchedule, "Config.BuildServers": inSchedule,
		"Config.ShipSec": inSchedule, "Config.ShipGrowthSec": inSchedule, "Config.ShipServers": inSchedule,
		"Config.BootSec": inSchedule, "Config.WarmStartSec": inSchedule, "Config.PodSize": inSchedule,
		"Config.GBSecondUSD": neither, "Config.PerRequestUSD": inBill,
		"Config.Storage.PutRequestUSD": inBill, "Config.Storage.GetRequestUSD": inBill, "Config.Storage.EgressPerGBUSD": inBill,
		"Config.StorageGBps": neither, "Config.JitterRel": neither, "Config.MaxExecSec": neither,
		"Config.ConcurrencyLimit": gate, "Config.StartFailureProb": gate, "Config.CrashRate": gate,
		"Config.StragglerProb": gate, "Config.StragglerFactor": neither, "Config.ExecTimeoutSec": gate,
		"Config.Retry.Kind": neither, "Config.Retry.BaseSec": neither, "Config.Retry.CapSec": neither,
		"Config.Retry.Factor": neither, "Config.Retry.MaxAttempts": neither, "Config.Retry.MaxElapsedSec": neither,
		"Config.Hedge.Quantile": gate, "Config.Hedge.MinDelaySec": neither,
		"Burst.Demand.CPUSeconds": neither, "Burst.Demand.IOSeconds": neither, "Burst.Demand.MemoryMB": neither,
		"Burst.Demand.MemBWMBps": neither, "Burst.Demand.InputMB": inBill, "Burst.Demand.OutputMB": inBill,
		"Burst.Demand.ShuffleFraction": inBill, "Burst.Demand.SharedInput": inBill,
		"Burst.Functions": gate, "Burst.Degree": gate, // the instance count and the degrees are keyed apart
		"Burst.Warm": inSchedule, "Burst.StaggerSec": inSchedule,
		"Burst.Seed": neither, "Burst.Recorder": neither, "Burst.Label": neither,
	}
	base := func() (Config, Burst) {
		cfg := AWSLambda()
		cfg.PodSize = 3
		return cfg, Burst{Demand: tandemLight, Functions: 400, Degree: 4, Warm: 7, StaggerSec: 1e-3, Seed: 2}
	}
	cfg0, b0 := base()
	schedule0 := solvedSchedule(t, cfg0, b0)
	resetStores()
	res0, err := Run(cfg0, b0)
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	var b Burst
	seen := map[string]bool{}
	for root, v := range map[string]reflect.Value{"Config": reflect.ValueOf(&cfg).Elem(), "Burst": reflect.ValueOf(&b).Elem()} {
		fieldPaths(t, root+".", v, func(path string, mutate func()) {
			class, ok := classes[path]
			if !ok {
				t.Errorf("%s is not classified: say whether the schedule or the bill reads it", path)
				return
			}
			seen[path] = true
			cfg, b = base()
			mutate()
			if class == gate {
				return
			}
			sameKey := scheduleKeyOf(&cfg, b.Warm, b.StaggerSec) == scheduleKeyOf(&cfg0, b0.Warm, b0.StaggerSec)
			if class == inSchedule {
				if sameKey {
					t.Errorf("%s is in the schedule's read set but not in its key", path)
				}
			} else if got := solvedSchedule(t, cfg, b); !slicesEqualBits(got, schedule0) {
				t.Errorf("%s changes the solved schedule but is not in its key", path)
			}
			sameBill := billKeyOf(&cfg, &b.Demand, 4, 4, 100) == billKeyOf(&cfg0, &b0.Demand, 4, 4, 100)
			if class == inBill {
				if sameBill {
					t.Errorf("%s is read by the bill but not in its key", path)
				}
				return
			}
			resetStores()
			res, err := Run(cfg, b)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !slicesEqualBits([]float64{res.StorageUSD, res.RequestUSD}, []float64{res0.StorageUSD, res0.RequestUSD}) {
				t.Errorf("%s changes the storage or request fee but is not in the bill's key", path)
			}
		})
	}
	for path := range classes {
		if !seen[path] {
			t.Errorf("%s is classified but no longer a field", path)
		}
	}
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestScalingTimeProbeStoreBounded: ScalingTime keeps in the probe store
// exactly the answers no schedule record gives — a small, throttled, faulty
// or declined probe, under its Config, seed and count — and no error. A
// record is read without an allocation, and its bits are the fold's
// even at −0, which no tandem start is. The probe store never holds more than
// its cap, and a probe dropped there measures the same bits when asked again.
func TestScalingTimeProbeStoreBounded(t *testing.T) {
	defer resetStores()
	throttled, faulty, failing, declined := AWSLambda(), AWSLambda(), AWSLambda(), Config{}
	throttled.ConcurrencyLimit = 10
	faulty.StartFailureProb = 0.2
	failing.StartFailureProb, failing.Retry.MaxAttempts = 0.9, 1
	for tie := int64(0); declined.Name == ""; tie++ { // a tie-prone control plane that declines the probe
		cfg, fallbacks := tieProneConfig(rand.New(rand.NewSource(tie)).Intn), tandemFallbacks.Load()
		if _, err := Run(cfg, Burst{Demand: tandemLight, Functions: 100, Degree: 1}); err == nil && tandemFallbacks.Load() != fallbacks {
			declined = cfg
		}
	}
	resetStores()
	for _, tc := range []struct {
		cfg  Config
		n    int
		kept int // entries each seed adds to the probe store
	}{{AWSLambda(), 500, 0}, {AWSLambda(), storeMin - 1, 1}, {throttled, 500, 1}, {faulty, 500, 1}, {declined, 100, 1}, {failing, 100, 0}} {
		for seed := int64(1); seed <= 2; seed++ {
			kept := len(probes.m)
			cold, err := ScalingTime(tc.cfg, seed, tc.n)
			if warm, werr := ScalingTime(tc.cfg, seed, tc.n); math.Float64bits(warm) != math.Float64bits(cold) || fmt.Sprint(werr) != fmt.Sprint(err) {
				t.Errorf("%s, %d instances, seed %d: %v (%v), then %v (%v)", tc.cfg.Name, tc.n, seed, cold, err, warm, werr)
			}
			if got := len(probes.m) - kept; got != tc.kept {
				t.Errorf("%s, %d instances, seed %d: %d probes kept, want %d", tc.cfg.Name, tc.n, seed, got, tc.kept)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = ScalingTime(AWSLambda(), 3, 500) }); a != 0 {
		t.Errorf("a recorded probe allocates %v objects", a)
	}
	col := []float64{math.Copysign(0, -1), 0}
	for n := 1; n <= 2; n++ {
		r := &Result{cols: instanceColumns{n: n, start: col[:n], end: col[:n]}}
		if r.fold(false, nil); math.Float64bits(maxStart(col[:n])) != math.Float64bits(r.ScalingTime()) {
			t.Errorf("maxStart(%v) = %v, the fold's %v", col[:n], maxStart(col[:n]), r.ScalingTime())
		}
	}

	resetStores()
	first, _ := ScalingTime(throttled, 0, 1)
	for seed := int64(1); seed <= probeStoreCap; seed++ {
		if _, err := ScalingTime(throttled, seed, 1); err != nil {
			t.Fatal(err)
		}
		if len(probes.m) > probeStoreCap {
			t.Fatalf("the probe store holds %d probes, cap %d", len(probes.m), probeStoreCap)
		}
	}
	if _, kept := probes.lookup(probeKey{throttled, 0, 1}); kept {
		t.Errorf("%d probes never emptied the probe store", probeStoreCap+1)
	}
	if again, _ := ScalingTime(throttled, 0, 1); math.Float64bits(again) != math.Float64bits(first) {
		t.Errorf("a probe dropped at the cap measured %v, then %v", first, again)
	}
}

// TestScalingTimeConcurrent: probes racing from parallel.Map on cold stores —
// records, the probe store and misses at once — each answer what a lone
// caller on warm stores answers (CI's race-stress job runs it under -race).
func TestScalingTimeConcurrent(t *testing.T) {
	defer resetStores()
	throttled := AWSLambda()
	throttled.ConcurrencyLimit = 10
	probe := func(_ context.Context, i int) (float64, error) {
		return ScalingTime([]Config{AWSLambda(), throttled}[i%2], int64(i%3), []int{storeMin - 1, 300}[i/2%2])
	}
	for _, workers := range []int{2, 8} {
		resetStores()
		got, err := parallel.Map(context.Background(), 48, probe, parallel.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if want, _ := probe(context.Background(), i); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%d workers, probe %d: %v, alone %v", workers, i, got[i], want)
			}
		}
	}
}
