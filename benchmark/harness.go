package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart approximates process start: the first set-up is timed from
// here, so runtime initialisation and flag parsing count as set-up.
var processStart = time.Now()

// sizing is the one knob between the full benchmark and the -smoke self-test.
// The full sizes are the ISSUE's operation sizes and never shrink; when the
// run budget is tight the window (-seconds) shrinks instead.
type sizing struct {
	smoke          bool
	pairs          int // (platform, app) pairs, of 20
	burstFunctions int // instances per burst op
	recorderBurst  int // burst size for the obs.Recorder overhead comparison
	figures        int // experiment drivers per figures op, of 29
	coldC          int // size of the serve mix's cold concurrency pool
	setups         int // set-up repetitions whose median is setup_s
	probeScale     int // divisor on layer-probe iteration counts
}

func fullSizing() sizing {
	return sizing{pairs: 20, burstFunctions: 1_000_000, recorderBurst: 100_000,
		figures: 29, coldC: 256, setups: 3, probeScale: 1}
}

func smokeSizing() sizing {
	return sizing{smoke: true, pairs: 2, burstFunctions: 10_000, recorderBurst: 10_000,
		figures: 3, coldC: 16, setups: 1, probeScale: 20}
}

// benchWorkload is one benchmark workload: a closed loop of identical-shape ops.
// run performs op i of driver d against the program under test and keeps its
// outputs; check compares those outputs with the goldens afterwards, outside
// the op's timed interval.
type benchWorkload interface {
	name() string
	// drivers is the number of closed-loop driver goroutines.
	drivers() int
	// unitsPerOp scales ops_per_s (instances per burst, figures per suite).
	unitsPerOp() float64
	// tailQuantile is the percentile op_tail_ms reports for this workload.
	tailQuantile() float64
	// sliceOps is the number of consecutive ops of one driver that make one
	// pass over its inputs; see slice.
	sliceOps() int
	// setup builds the inputs from the seed and every piece of program state
	// the timed loop needs, verifies the goldens, and warms up. traced selects
	// the set-up of a traced window (only serve-mix differs).
	setup(seed int64, traced bool) error
	run(d, i int, tr *tracer, parent int) error
	check(d, i int) bool
	// layers turns a traced window into this workload's span-derived layer
	// metrics, with the set-up facts that are layer metrics too (first-op
	// times).
	layers(agg perOp, out values)
	// regold recomputes this workload's section of the goldens, for the full
	// and the smoke sizing.
	regold(g *goldens) error
}

// rerunner is implemented by a workload that, in a traced window, repeats
// parts of the op it just ran to time them alone, outside the op's own span.
type rerunner interface {
	rerun(op int, tr *tracer) error
}

// slice is one pass of one driver over its input panel: every slice of a
// workload runs the same multiset of ops, so slices compare like with like.
type slice struct {
	durs []float64 // per-op seconds, in op order
	wall float64   // seconds from the slice's first op starting to its last op checked
}

// window is the outcome of one timed window.
type window struct {
	durs      []float64 // per-op seconds, all drivers merged, sorted
	slices    []slice   // complete slices of all drivers
	drivers   int
	attempted int
	failed    int
	wall      time.Duration
	peakRSSMB float64 // VmHWM when the last driver finished
	rssErr    error
	spans     [][]span // per driver, traced windows only
	firstErr  error
}

// plus is the two windows taken as one: ops, slices and span lists together.
func (win window) plus(o window) window {
	win.durs = append(win.durs, o.durs...)
	sort.Float64s(win.durs)
	win.slices = append(win.slices, o.slices...)
	win.spans = append(win.spans, o.spans...)
	win.drivers = o.drivers
	win.attempted += o.attempted
	win.failed += o.failed
	win.wall += o.wall
	if win.firstErr == nil {
		win.firstErr = o.firstErr
	}
	return win
}

// runWindow drives w for the given duration (and at most maxOps ops per
// driver when maxOps > 0). Each driver is a closed loop: its next op starts
// when the previous one has completed and been checked.
func runWindow(w benchWorkload, dur time.Duration, maxOps int, traced bool) window {
	n, sliceOps := w.drivers(), w.sliceOps()
	rr, _ := w.(rerunner)
	type driverOut struct {
		chunks    [][]float64 // per-op seconds, one chunk of sliceOps ops per slice
		starts    []time.Time // when each slice's first op started
		ends      []time.Time // when each complete slice's last op had been checked
		attempted int
		failed    int
		spans     []span
		err       error
	}
	outs := make([]driverOut, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			o := &outs[d]
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			for i := 0; maxOps <= 0 || i < maxOps; i++ {
				if sliceOps == 1 {
					// A workload whose op is a whole process's work for its user
					// (one burst, one figure suite) starts each op as that process
					// would: with nothing to collect. Outside every timed interval.
					runtime.GC()
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				if i%sliceOps == 0 {
					// One fixed-size chunk per slice: no growing array to copy
					// in the middle of a window.
					o.starts = append(o.starts, t0)
					o.chunks = append(o.chunks, make([]float64, 0, sliceOps))
				}
				root := tr.begin(i+1, 0, w.name())
				err := w.run(d, i, tr, root)
				tr.end(root)
				last := len(o.chunks) - 1
				o.chunks[last] = append(o.chunks[last], time.Since(t0).Seconds())
				o.attempted++
				if err != nil {
					o.failed++
					if o.err == nil {
						o.err = err
					}
				} else if !w.check(d, i) {
					o.failed++
				}
				if (i+1)%sliceOps == 0 {
					o.ends = append(o.ends, time.Now())
				}
				if rr != nil && tr != nil && err == nil {
					if err := rr.rerun(i+1, tr); err != nil && o.err == nil {
						o.err = err
					}
				}
			}
			if tr != nil {
				o.spans = tr.spans
			}
		}(d)
	}
	wg.Wait()
	win := window{wall: time.Since(start), drivers: n}
	// Read before the merge below allocates: the high-water mark is the
	// program's and the drivers', not the statistics'.
	win.peakRSSMB, win.rssErr = peakRSSMB()
	for _, o := range outs {
		for k, chunk := range o.chunks {
			win.durs = append(win.durs, chunk...)
			if k < len(o.ends) {
				win.slices = append(win.slices, slice{durs: chunk, wall: o.ends[k].Sub(o.starts[k]).Seconds()})
			}
		}
		win.attempted += o.attempted
		win.failed += o.failed
		if traced {
			win.spans = append(win.spans, o.spans)
		}
		if win.firstErr == nil {
			win.firstErr = o.err
		}
	}
	sort.Float64s(win.durs)
	return win
}

// timing is what a timed window reports.
type timing struct {
	p50, tail float64 // seconds
	opsPerSec float64
	samples   int
}

// rawTiming is the window taken whole: every op, and ops over wall time.
func (win window) rawTiming(tailQ float64) timing {
	return timing{
		p50: quantile(win.durs, 0.5), tail: quantile(win.durs, tailQ),
		opsPerSec: float64(win.attempted) / win.wall.Seconds(), samples: len(win.durs),
	}
}

// quietQuantile and quietMinRank pick the slice a run reports: its quiet
// decile, but never quieter than the fourth-quietest slice (a run of fifteen
// one-op slices would otherwise report an extreme) and never past the median.
const (
	quietQuantile = 0.10
	quietMinRank  = 4
)

// quietOf is the quiet-decile value of per-slice statistics.
func quietOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	rank := max(int(math.Ceil(quietQuantile*float64(n))), quietMinRank)
	rank = min(rank, (n+1)/2)
	return sorted[rank-1]
}

// quietTiming is the window with its noise trimmed. Each statistic is taken
// per slice — the median op time, the tail op time, the slice's wall time —
// and the run reports the quiet decile of each across its slices.
//
// Why not the whole window: under the default collector a program that
// allocates fast on a small heap, on a two-core shared host, drifts between
// faster and slower phases that last seconds; whole-window medians of an
// unchanged program then differ by a tenth or more from run to run, which
// would hide any regression smaller than that. The noise is one-sided (a
// phase only ever makes a slice slower) and slices are like for like, so a
// low quantile across slices repeats within a few percent. A cost the program
// pays on every pass over its inputs (collections, cache misses, allocation)
// is in every slice and so is in the quiet decile too. rawTiming goes into
// the record beside it.
func (win window) quietTiming(tailQ float64) timing {
	if len(win.slices) == 0 {
		return win.rawTiming(tailQ)
	}
	p50s, tails, walls := make([]float64, len(win.slices)), make([]float64, len(win.slices)), make([]float64, len(win.slices))
	ops := 0
	for i, sl := range win.slices {
		sorted := append([]float64(nil), sl.durs...)
		sort.Float64s(sorted)
		p50s[i], tails[i], walls[i] = quantile(sorted, 0.5), quantile(sorted, tailQ), sl.wall
		ops = len(sl.durs)
	}
	return timing{
		p50: quietOf(p50s), tail: quietOf(tails),
		opsPerSec: float64(win.drivers) * float64(ops) / quietOf(walls),
		samples:   len(win.slices) * ops,
	}
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// coldStart drops what earlier work left in sync.Pools (two collections empty
// a pool and its victim cache), so a repeated set-up pays the same pool
// builds as the first one did.
func coldStart() {
	runtime.GC()
	runtime.GC()
}

// timedSetups sets the workload up `reps` times from scratch and returns the
// per-repetition seconds; the workload is left in the state of the last one.
// The first repetition is timed from process start.
func timedSetups(w benchWorkload, seed int64, traced bool, reps int) ([]float64, error) {
	secs := make([]float64, 0, reps)
	for k := 0; k < reps; k++ {
		t0 := processStart
		if k > 0 {
			coldStart()
			t0 = time.Now()
		}
		if err := w.setup(seed, traced); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostInfo stamps a record with where it was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit the binary was built from when the toolchain stamped
// one, else HEAD of a git checkout in the working directory, else "unknown"
// (the driver's checkout is not a repository).
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// medianNS times fn reps times and returns the median nanoseconds of one call.
func medianNS(reps int, fn func() error) (float64, error) {
	ns := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}

// perCallNS times batches of n calls and returns the median nanoseconds per
// call, for operations too short to time one by one.
func perCallNS(reps, n int, fn func() error) (float64, error) {
	batch, err := medianNS(reps, func() error {
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return batch / float64(n), err
}

// allocsOf reports the heap objects and bytes fn allocated, as the runtime's
// malloc counters saw them.
func allocsOf(fn func() error) (objects, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), err
}
