package platform

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// The schedule and bill stores' proof (store.go, DESIGN §12): a burst inside
// their gate is, bit for bit and trace byte for trace byte, the burst forced
// through the event engine — which never reads the stores — whatever the
// stores hold when it runs; bursts outside the gate never touch them; they
// stay within their caps; and their keys hold every field the solver and the
// bill read.

// resetStores empties both stores, as a full one is emptied.
func resetStores() {
	schedules.Lock()
	clear(schedules.m)
	schedules.held = 0
	schedules.Unlock()
	bills.Lock()
	clear(bills.m)
	bills.Unlock()
}

// storeSizes reports the schedule store's keys and held rows and records and
// the bill store's entries, after checking held against the entries.
func storeSizes(t *testing.T) (keys, held, billed int) {
	t.Helper()
	schedules.Lock()
	defer schedules.Unlock()
	sum := 0
	for _, s := range schedules.m {
		sum += s.rows + len(s.busy)
	}
	if sum != schedules.held {
		t.Fatalf("the schedule store counts %d rows and records, its entries hold %d", schedules.held, sum)
	}
	bills.Lock()
	defer bills.Unlock()
	return len(schedules.m), schedules.held, len(bills.m)
}

// teeRecorder hands every record to both recorders.
type teeRecorder [2]obs.Recorder

func (r teeRecorder) BeginBurst(b obs.BurstInfo) { r[0].BeginBurst(b); r[1].BeginBurst(b) }
func (r teeRecorder) Span(s obs.Span)            { r[0].Span(s); r[1].Span(s) }
func (r teeRecorder) Event(e obs.Event)          { r[0].Event(e); r[1].Event(e) }

// storeRun is one kind of burst the stores serve, spelled by what the store
// states vary: the platform, a size multiplier, the seed and the demand.
type storeRun func(cfg Config, scale int, seed int64, d interfere.Demand, rec obs.Recorder) (*Result, error)

// storeRuns draws a Run, a RunMixed and a RunSharded burst, each inside the
// stores' gate (RunSharded's in every cell).
func storeRuns(rng *rand.Rand) map[string]storeRun {
	n, degree, warm := storeMin+rng.Intn(200), 1+rng.Intn(8), rng.Intn(20)
	short := rng.Intn(degree) // the last instance's missing functions
	stagger := []float64{0, 0, 1.0 / 16, 1e-3}[rng.Intn(4)]
	binDegrees := make([]int, 2*n)
	for i := range binDegrees {
		binDegrees[i] = 1 + rng.Intn(4)
	}
	return map[string]storeRun{
		"Run": func(cfg Config, scale int, seed int64, d interfere.Demand, rec obs.Recorder) (*Result, error) {
			return Run(cfg, Burst{Demand: d, Functions: scale*n*degree - short, Degree: degree,
				Warm: warm, StaggerSec: stagger, Seed: seed, Recorder: rec, Label: "store"})
		},
		"RunMixed": func(cfg Config, scale int, seed int64, d interfere.Demand, rec obs.Recorder) (*Result, error) {
			bins := make([]Bin, scale*n)
			for i := range bins {
				for k := 0; k < binDegrees[i%len(binDegrees)]; k++ {
					bins[i].Demands = append(bins[i].Demands, []interfere.Demand{d, tandemLight}[k%2])
				}
			}
			return RunMixed(cfg, MixedBurst{Bins: bins, Warm: warm, StaggerSec: stagger, Seed: seed, Recorder: rec, Label: "store"})
		},
		"RunSharded": func(cfg Config, scale int, seed int64, d interfere.Demand, _ obs.Recorder) (*Result, error) {
			return RunSharded(cfg, Burst{Demand: d, Functions: 4 * scale * n * degree, Degree: degree, Warm: warm, Seed: seed},
				Sharding{Shards: 4})
		},
	}
}

// storeOther is an application with other I/O than tandemLight.
var storeOther = interfere.Demand{CPUSeconds: 3, MemoryMB: 256, InputMB: 4, OutputMB: 2, ShuffleFraction: 0.5, SharedInput: true}

// floodStores runs bursts of keys no test burst has until the schedule store
// has been emptied at least once.
func floodStores(t *testing.T, cfg Config) {
	t.Helper()
	const rows = scheduleStoreCap / 8
	for k := 0; k*rows <= scheduleStoreCap; k++ {
		b := Burst{Demand: tandemLight, Functions: rows, Degree: 1, Warm: 1<<20 + k, Seed: 1}
		if _, err := Run(cfg, b); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStoreStates runs each of storeRuns' bursts on cfg from every state
// the stores can be in — empty, warmed by the burst itself, by a longer
// burst, by another seed, another application or another memory size, and
// warmed and then emptied by a flood — and requires each run to be the burst
// forced through the engine. It reports whether the bursts left schedules and
// bills in the stores: a platform whose ties the solver declines leaves none.
func checkStoreStates(t *testing.T, cfg Config, rng *rand.Rand) (stored bool) {
	t.Helper()
	smaller, err := cfg.WithMemory(cfg.Shape.MemoryMB / 2)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	states := []struct {
		name string
		warm func(run storeRun) error
	}{
		{"empty", func(storeRun) error { return nil }},
		{"itself", func(run storeRun) error { _, err := run(cfg, 1, seed, tandemLight, nil); return err }},
		{"a longer burst", func(run storeRun) error { _, err := run(cfg, 3, seed, tandemLight, nil); return err }},
		{"another seed", func(run storeRun) error { _, err := run(cfg, 1, seed+1, tandemLight, nil); return err }},
		{"another application", func(run storeRun) error { _, err := run(cfg, 1, seed, storeOther, nil); return err }},
		{"another memory size", func(run storeRun) error { _, err := run(smaller, 1, seed, tandemLight, nil); return err }},
		{"a clear", func(run storeRun) error {
			if _, err := run(cfg, 1, seed, tandemLight, nil); err != nil {
				return err
			}
			floodStores(t, cfg)
			return nil
		}},
	}
	traced := func(run storeRun, cfg Config) (*Result, []byte, []byte) {
		var jsonl, chrome bytes.Buffer
		mem := &obs.Memory{}
		res, err := run(cfg, 1, seed, tandemLight, teeRecorder{obs.NewJSONL(&jsonl), mem})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := obs.WriteChromeTrace(&chrome, mem.Bursts()); err != nil {
			t.Fatal(err)
		}
		return res, jsonl.Bytes(), chrome.Bytes()
	}
	for kind, run := range storeRuns(rng) {
		want, wantJSONL, wantChrome := traced(run, forcedEvented(cfg, math.MaxInt32))
		for _, st := range states {
			resetStores()
			if err := st.warm(run); err != nil {
				t.Fatalf("%s %s, warming by %s: %v", cfg.Name, kind, st.name, err)
			}
			what := fmt.Sprintf("%s %s, store warmed by %s", cfg.Name, kind, st.name)
			got, gotJSONL, gotChrome := traced(run, cfg)
			sameResultBits(t, what, got, want)
			if !bytes.Equal(gotJSONL, wantJSONL) || !bytes.Equal(gotChrome, wantChrome) {
				t.Fatalf("%s: traces differ from the forced-evented burst's", what)
			}
		}
	}
	keys, _, billed := storeSizes(t)
	return keys > 0 && billed > 0
}

// TestScheduleStoreStateIndependence aims checkStoreStates at tie-prone
// platforms — warm prefixes, staggers, pods, and ties the solver declines
// (those runs fall back and store nothing). The presets (FuncX among them)
// are TestScheduleStorePresets in the external package.
func TestScheduleStoreStateIndependence(t *testing.T) {
	defer resetStores()
	rng := rand.New(rand.NewSource(1618))
	trials, stored := 12, 0
	if testing.Short() || raceEnabled {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		if checkStoreStates(t, tieProneConfig(rng.Intn), rng) {
			stored++
		}
	}
	if stored < trials/2 {
		t.Fatalf("%d of %d tie-prone platforms stored anything: the states went untested", stored, trials)
	}
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

// TestScheduleStoreFollowed runs bursts the follower ends and folds — at,
// one above and well above overlapDrawMin, with a warm prefix — from every
// store state: empty, warmed by the burst itself, by a longer and by a
// shorter burst, by another seed, by another application and by another
// degree at the same instance count (the schedule stored, the bill not), and
// warmed and then emptied by a flood. At
// GOMAXPROCS 1 each is drawn, ended and folded inline; at 2 the follower
// folds it behind the solver, or, on a hit, behind the draw. Either way it is
// the burst forced through the engine, bit for bit.
func TestScheduleStoreFollowed(t *testing.T) {
	defer resetStores()
	cfg := AWSLambda()
	for _, n := range []int{overlapDrawMin, overlapDrawMin + 1, 4*overlapDrawMin + 3} {
		burst := func(functions int, seed int64) Burst {
			return Burst{Demand: tandemLight, Functions: functions, Degree: 1, Warm: 5, Seed: seed}
		}
		b := burst(n, 7)
		want, err := Run(forcedEvented(cfg, math.MaxInt32), b)
		if err != nil {
			t.Fatal(err)
		}
		warmWith := func(w Burst) func() {
			return func() {
				if _, err := Run(cfg, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		warmBy := func(functions int, seed int64) func() { return warmWith(burst(functions, seed)) }
		other, packed := burst(n, 7), burst(3*n-1, 7)
		other.Demand, packed.Degree = storeOther, 3
		states := []struct {
			name      string
			warm      func()
			hit, paid bool // the burst reads its schedule, its bill from the store
		}{
			{"empty", func() {}, false, false},
			{"itself", warmBy(n, 7), true, true},
			{"a longer burst", warmBy(n+followChunk+1, 7), false, false},
			{"a shorter burst", warmBy(n-followChunk-1, 7), false, false},
			{"another seed", warmBy(n, 8), true, true},
			{"another application", warmWith(other), true, false},
			{"another degree", warmWith(packed), true, false},
			{"a clear", func() { warmBy(n, 7)(); floodStores(t, cfg) }, false, true}, // the flood fills no bill
		}
		for p := 1; p <= 2; p++ {
			withProcs(p, func() {
				for _, st := range states {
					resetStores()
					st.warm()
					what := fmt.Sprintf("n=%d at GOMAXPROCS %d, store warmed by %s", n, p, st.name)
					if hit := scheduleStored(cfg, b); hit != st.hit {
						t.Fatalf("%s: the schedule is stored: %v, want %v", what, hit, st.hit)
					}
					if _, paid := lookupBill(billKeyOf(&cfg, &b.Demand, 1, 1, n)); paid != st.paid {
						t.Fatalf("%s: the bill is stored: %v, want %v", what, paid, st.paid)
					}
					var got *Result
					folded := countFolded(func() {
						if got, err = Run(cfg, b); err != nil {
							t.Fatal(err)
						}
					})
					if followed := int64(p - 1); folded != followed {
						t.Fatalf("%s: the follower folded %d bursts, want %d", what, folded, followed)
					}
					sameResultBits(t, what, got, want)
				}
			})
		}
	}
}

// scheduleStored reports whether b's schedule on cfg is in the store: its
// rows and its instance count's busy seconds.
func scheduleStored(cfg Config, b Burst) bool {
	schedules.Lock()
	defer schedules.Unlock()
	s, n := schedules.m[scheduleKeyOf(&cfg, b.Warm, b.StaggerSec)], b.Instances()
	if s == nil || s.rows < n {
		return false
	}
	_, ok := s.busy[n]
	return ok
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

// TestScheduleStoreCap: however many keys and counts a caller brings, the
// schedule store holds at most scheduleStoreCap rows and records and the
// bill store billStoreCap entries, each emptied when full, and a burst run
// after the clear is the burst it was before.
func TestScheduleStoreCap(t *testing.T) {
	defer resetStores()
	resetStores()
	cfg := AWSLambda()
	b := Burst{Demand: tandemLight, Functions: 300, Degree: 1, Seed: 9}
	before, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	cleared := false
	for k := 0; k < 5; k++ {
		floodStores(t, cfg)
		keys, held, _ := storeSizes(t)
		if held > scheduleStoreCap {
			t.Fatalf("the schedule store holds %d rows and records, cap %d", held, scheduleStoreCap)
		}
		schedules.Lock()
		_, kept := schedules.m[scheduleKeyOf(&cfg, b.Warm, b.StaggerSec)]
		schedules.Unlock()
		cleared = cleared || !kept
		if keys < 1 {
			t.Fatalf("a flood left no schedule behind")
		}
	}
	if !cleared {
		t.Fatalf("floods of %d rows never emptied the schedule store", 5*scheduleStoreCap)
	}
	keys, held, _ := storeSizes(t)
	storeSchedule(scheduleKey{warm: -1}, scheduleStoreCap, nil, [3]float64{})
	if k, h, _ := storeSizes(t); k != keys || h != held {
		t.Fatalf("a schedule of %d rows, the whole store, was stored: %d keys holding %d, had %d holding %d",
			scheduleStoreCap, k, h, keys, held)
	}
	for n := storeMin; n < storeMin+billStoreCap+10; n++ { // a bill and a busy record per count
		if _, err := Run(cfg, Burst{Demand: tandemLight, Functions: n, Degree: 1, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		if _, held, billed := storeSizes(t); held > scheduleStoreCap || billed > billStoreCap {
			t.Fatalf("n=%d: the stores hold %d rows and records and %d bills, caps %d and %d",
				n, held, billed, scheduleStoreCap, billStoreCap)
		}
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
	cp.cfg, cp.ib, cp.podSize = cfg, &sc.batch, max(cfg.PodSize, 1)
	if !cp.solveTandem(b, nil) {
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
