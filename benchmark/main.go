// Command benchmark is the repository's one performance instrument: four
// workloads, seven end-to-end metrics measured with tracing off, and a -trace
// mode that attributes each workload's time to the layers under it from spans
// recorded on this side of every layer boundary. README.md has the tables.
//
//	go run ./benchmark -workload advise-cold -seed 1
//	go run ./benchmark -workload all -seed 1 -out A.jsonl
//	go run ./benchmark -workload burst-1m -trace 1
//	go run ./benchmark -compare A.jsonl B.jsonl
//	go run ./benchmark -update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	update   bool
	compare  bool
	out      string
	traceDir string
}

func (o options) sizing() sizing {
	if o.smoke {
		return smokeSizing()
	}
	return fullSizing()
}

// newWorkloads returns the four workloads in their fixed order.
func newWorkloads(sz sizing) []benchWorkload {
	return []benchWorkload{newAdviseCold(sz), newBurst1M(sz), newFiguresQuick(sz), newServeMix(sz)}
}

func workloadByName(sz sizing, name string) (benchWorkload, error) {
	var names []string
	for _, w := range newWorkloads(sz) {
		if w.name() == name {
			return w, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, or all)", name, names)
}

// record is one run of one workload, as appended to the -out file.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Smoke     bool     `json:"smoke,omitempty"`
	Time      string   `json:"time"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// FailedRatio is failed over attempted: errors, non-200s and outputs that
	// differ from their golden.
	FailedRatio float64 `json:"failed_ratio"`
	// Samples is the number of timed ops behind the percentiles, and
	// TailPercentile the percentile op_tail_ms reports.
	Samples        int                    `json:"samples"`
	TailPercentile float64                `json:"tail_percentile"`
	Metrics        map[string]metricValue `json:"metrics"`
	// Extra holds measured facts that are not declared metrics (each set-up
	// repetition, the untraced reference of a trace run).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: advise-cold, burst-1m, figures-quick, serve-mix, or all (one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the benchmark's input generation (op order, concurrency draws, request ring, burst seed rotation)")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans at every layer boundary and emits the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test sizing: 10^4-instance burst, 3 figures, 2 pairs")
	flag.BoolVar(&o.update, "update", false, "rewrite "+goldenPath+" from this build's outputs and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two record files: -compare old.jsonl new.jsonl")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out", "records.jsonl"), "file to append this run's JSON record to (empty: none)")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two record files, old then new")
		}
		worse, err := compareFiles(os.Stdout, args[0], args[1])
		if err != nil {
			return err
		}
		if worse > 0 {
			return fmt.Errorf("%d metric(s) worse than their bound", worse)
		}
		return nil
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %v", args)
	case o.update:
		return updateGoldens(o.workload)
	case o.workload == "all":
		return runAll(o)
	}
	w, err := workloadByName(o.sizing(), o.workload)
	if err != nil {
		return err
	}
	var rec record
	if o.trace != 0 {
		rec, err = runTraced(w, o, os.Stdout)
	} else {
		rec, err = runUntraced(w, o)
	}
	if err != nil {
		return err
	}
	if err := appendRecord(o.out, rec); err != nil {
		return err
	}
	return printRecord(os.Stdout, rec)
}

// runAll runs every workload in a process of its own, so that one workload's
// heap, pools and peak resident set are not another's.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range newWorkloads(o.sizing()) {
		args := []string{
			"-workload", w.name(), "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-out", o.out, "-tracedir", o.traceDir,
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
	}
	return nil
}

// updateGoldens recomputes the goldens of one workload, or of all, and
// rewrites the golden file.
func updateGoldens(name string) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	for _, w := range newWorkloads(fullSizing()) {
		if name != "all" && name != w.name() {
			continue
		}
		fmt.Fprintf(os.Stderr, "regenerating %s goldens\n", w.name())
		if err := w.regold(g); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
	}
	return g.write(goldenPath)
}

// runUntraced is the measurement proper: repeated set-ups, one timed window
// with tracing off, then the plan-quality check outside it.
func runUntraced(w benchWorkload, o options) (record, error) {
	sz := o.sizing()
	setups, err := timedSetups(w, o.seed, false, sz.setups)
	if err != nil {
		return record{}, err
	}
	win := runWindow(w, time.Duration(o.seconds*float64(time.Second)), 0, false)
	if win.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", w.name(), win.firstErr)
	}
	if win.attempted == 0 {
		return record{}, fmt.Errorf("%s: no op completed in %g s", w.name(), o.seconds)
	}
	if win.rssErr != nil {
		return record{}, win.rssErr
	}
	regret, modelErr, err := planQuality(panel(sz.pairs))
	if err != nil {
		return record{}, err
	}
	quiet, raw := win.quietTiming(w.tailQuantile()), win.rawTiming(w.tailQuantile())
	v := values{
		"setup_s":         median(setups),
		"op_p50_ms":       quiet.p50 * 1e3,
		"op_tail_ms":      quiet.tail * 1e3,
		"ops_per_s":       quiet.opsPerSec * w.unitsPerOp(),
		"peak_rss_mb":     win.peakRSSMB,
		"plan_regret_pct": regret,
		"model_err_pct":   modelErr,
	}
	rec := newRecord(w, o, win)
	rec.Samples = quiet.samples
	rec.Extra = map[string]float64{
		"timed_wall_s": win.wall.Seconds(), "slices": float64(len(win.slices)), "raw_samples": float64(raw.samples),
		"raw_op_p50_ms": raw.p50 * 1e3, "raw_op_tail_ms": raw.tail * 1e3, "raw_ops_per_s": raw.opsPerSec * w.unitsPerOp(),
	}
	for k, s := range setups {
		rec.Extra[fmt.Sprintf("setup_%d_s", k+1)] = s
	}
	var missing []string
	rec.Metrics, missing = v.emit(endToEnd)
	if len(missing) > 0 {
		return record{}, fmt.Errorf("%s: metrics never measured: %v", w.name(), missing)
	}
	return rec, nil
}

func newRecord(w benchWorkload, o options, win window) record {
	return record{
		Workload: w.name(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0, Smoke: o.smoke,
		Time: time.Now().UTC().Format(time.RFC3339), Host: readHost(),
		Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		FailedRatio: float64(win.failed) / float64(win.attempted),
		Samples:     len(win.durs), TailPercentile: w.tailQuantile() * 100,
	}
}

// tracedBatchOps is how many ops a trace run spends on each workload other
// than the one it was asked for: enough for that workload's span-derived
// layer metrics, which every trace run must emit.
var tracedBatchOps = map[string]int{"advise-cold": 40, "burst-1m": 1, "figures-quick": 1, "serve-mix": 20000}

// maxTracedOps caps the named workload's traced ops per driver, so that a
// serve-mix trace stays a few tens of megabytes; traceRounds is how many
// alternating (untraced, traced) window pairs the named workload gets.
const (
	maxTracedOps = 60000
	traceRounds  = 3
)

// runTraced produces every per-layer metric. The workload it was asked for
// gets an untraced reference window (a quarter of -seconds) and a traced
// window (half of it), whose p50s give the tracing overhead; each other
// workload gets a short traced batch; and each group's layer probes run once.
func runTraced(named benchWorkload, o options, breakdown io.Writer) (record, error) {
	v := values{}
	var rec record
	attempted, failed := 0, 0
	for _, w := range newWorkloads(traceSizing(o.sizing())) {
		isNamed := w.name() == named.name()
		reference, traced, err := traceWorkload(w, isNamed, o, v, breakdown)
		if err != nil {
			return record{}, err
		}
		attempted += reference.attempted + traced.attempted
		failed += reference.failed + traced.failed
		if isNamed {
			p50U, p50T := reference.quietTiming(w.tailQuantile()).p50, traced.quietTiming(w.tailQuantile()).p50
			v["bench.trace_overhead_pct"] = (p50T/p50U - 1) * 100
			rec = newRecord(w, o, traced)
			rec.Extra = map[string]float64{"untraced_op_p50_ms": p50U * 1e3, "traced_op_p50_ms": p50T * 1e3}
		}
	}
	// Every window of the run counts: a golden missed in another workload's
	// batch is a failure of this run too.
	rec.Attempted, rec.Failed, rec.Correct = attempted, failed, failed == 0
	rec.FailedRatio = float64(failed) / float64(attempted)
	var missing []string
	rec.Metrics, missing = v.emit(layerMetrics())
	if len(missing) > 0 {
		return record{}, fmt.Errorf("layer metrics never measured: %v", missing)
	}
	return rec, nil
}

// traceWorkload is one workload's share of a trace run: its traced window or
// batch, the layer metrics read off its spans, and its layer probes, all into
// v. The reference window is empty unless the workload is the named one.
func traceWorkload(w benchWorkload, isNamed bool, o options, v values, breakdown io.Writer) (reference, traced window, err error) {
	fail := func(what string, err error) (window, window, error) {
		return window{}, window{}, fmt.Errorf("%s %s: %w", w.name(), what, err)
	}
	// Only serve-mix sets up differently for tracing (its daemon is built with
	// a span recorder), so only it needs a second instance for the untraced
	// side: the reference windows and the serve probes.
	untraced := w
	sm, isServe := w.(*serveMix)
	if isServe {
		sm = newServeMix(sm.sz)
		untraced = sm
		if err := untraced.setup(o.seed, false); err != nil {
			return fail("set-up", err)
		}
		if err := serveProbes(o.sizing(), sm, v); err != nil {
			return fail("probes", err)
		}
	}
	if err := w.setup(o.seed, true); err != nil {
		return fail("set-up", err)
	}
	if isNamed {
		// Untraced and traced windows alternate, so that a drift of the host
		// during the run lands on both sides of the overhead ratio.
		ref := time.Duration(o.seconds / 4 / traceRounds * float64(time.Second))
		for round := 0; round < traceRounds; round++ {
			reference = reference.plus(runWindow(untraced, ref, 0, false))
			traced = traced.plus(runWindow(w, 2*ref, maxTracedOps/traceRounds, true))
		}
	} else {
		traced = runWindow(w, time.Hour, tracedBatchOps[w.name()], true)
	}
	for _, win := range []window{reference, traced} {
		if win.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", w.name(), win.firstErr)
		}
	}
	if traced.attempted == 0 {
		return fail("trace", fmt.Errorf("no traced op completed"))
	}
	agg := aggregate(traced.spans, traced.attempted)
	w.layers(agg, v)
	printBreakdown(breakdown, w.name(), agg)
	if o.traceDir != "" {
		if _, err := writeTrace(o.traceDir, w.name(), traced.spans[0]); err != nil {
			return fail("trace file", err)
		}
	}
	switch w.name() {
	case "advise-cold":
		err = adviseProbes(o.sizing(), v)
	case "burst-1m":
		err = burstProbes(o.sizing(), v["platform.run_ms"], v)
	case "figures-quick":
		err = figuresProbes(o.sizing(), v)
	case "serve-mix":
		v["server.admitted_ratio"] = w.(*serveMix).admittedRatio(traced.attempted)
	}
	if err != nil {
		return fail("probes", err)
	}
	return reference, traced, nil
}

// traceSizing is the sizing of a trace run: the figures batch always runs all
// 29 drivers, smoke or not, because each has a layer metric of its own.
func traceSizing(sz sizing) sizing {
	sz.figures = fullSizing().figures
	return sz
}

// printBreakdown prints a traced window's per-op time by span name, with the
// root's self time — the residue no child span accounts for — on its own line.
func printBreakdown(out io.Writer, root string, agg perOp) {
	names := make([]string, 0, len(agg.durNS))
	for name := range agg.durNS {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return agg.durNS[names[i]] > agg.durNS[names[j]] })
	fmt.Fprintf(out, "per-op breakdown of %s over %d traced ops (mean):\n", root, agg.ops)
	fmt.Fprintf(out, "  %-32s %12s %12s %10s\n", "span", "total_ms", "self_ms", "calls")
	for _, name := range names {
		fmt.Fprintf(out, "  %-32s %12.4f %12.4f %10.2f\n", name, agg.durNS[name]/1e6, agg.self[name]/1e6, agg.calls[name])
	}
	fmt.Fprintf(out, "  %-32s %12s %12.4f\n", "residue (root self time)", "", agg.self[root]/1e6)
}

// appendRecord appends one JSON line to path (creating its directory).
func appendRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric by name with its unit and then, as the last
// line, the driver's result object.
func printRecord(out io.Writer, rec record) error {
	fmt.Fprintf(out, "%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s %s git=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Host.NProc, rec.Host.GOMAXPROCS,
		rec.Host.GoVersion, rec.Host.CPUModel, rec.Host.GitSHA)
	fmt.Fprintf(out, "ops attempted=%d failed=%d failed_ratio=%g samples=%d tail=p%g\n",
		rec.Attempted, rec.Failed, rec.FailedRatio, rec.Samples, rec.TailPercentile)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
