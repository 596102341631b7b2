// Command propack is the CLI face of the library: it profiles an
// application on a platform, prints ProPack's fitted models and recommended
// packing degree, executes plans on the simulated platform, and can run the
// real workload kernels packed locally.
//
// Usage:
//
//	propack advise -app Video -platform aws -c 5000 [-ws 0.5 | -qos 120] [-mem.grid 2560,5120,10240]
//	propack run    -app Video -platform aws -c 5000 -degree 10 [-mem.grid ...]
//	propack sweep  -app Sort  -platform aws -c 2000 [-mem.grid ...]
//	propack local  -app "Stateless Cost" -degree 8 -cores 4
//	propack serve  -addr 127.0.0.1:8080
//	propack apps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/localfaas"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// command is one subcommand: its dispatch name, the one-line summary that
// usage() renders, and the implementation.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

// commands is the dispatch table. Adding an entry here is the single step
// that both routes the subcommand and documents it in `propack -h` — the
// help text is generated from this table, so the two cannot drift.
var commands = []command{
	{"advise", "profile an app on a platform and print the optimal packing plan", cmdAdvise},
	{"run", "execute C functions at a packing degree on the simulated platform", cmdRun},
	{"sweep", "run every feasible packing degree and print the metrics", cmdSweep},
	{"local", "run the real workload kernel packed as goroutines on this machine", cmdLocal},
	{"hetero", "plan and run a heterogeneous two-application job (Sec. 5 extension)", cmdHetero},
	{"pareto", "print the service/expense Pareto frontier of packing degrees", cmdPareto},
	{"validate", "run the Sec. 2.4 Pearson χ² goodness-of-fit for an app/platform", cmdValidate},
	{"serve", "run the planner as a hardened HTTP daemon (admission control, rate limits, drain)", cmdServe},
	{"apps", "list the benchmark applications", cmdApps},
}

func commandByName(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage(os.Stdout)
		return
	}
	cmd := commandByName(name)
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "propack: unknown command %q\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := cmd.run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "propack:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: propack <command> [flags]")
	fmt.Fprintln(w, "\ncommands:")
	width := 0
	for _, c := range commands {
		if len(c.name) > width {
			width = len(c.name)
		}
	}
	for _, c := range commands {
		fmt.Fprintf(w, "  %-*s  %s\n", width, c.name, c.summary)
	}
	fmt.Fprintln(w, "\nrun 'propack <command> -h' for that command's flags")
}

func cmdApps([]string) error {
	for _, w := range workload.All() {
		d := w.Demand()
		fmt.Printf("%-15s solo %.0fs (cpu %.0fs / io %.0fs), %.0f MB, max degree on 10GB Lambda: %d\n",
			w.Name(), d.SoloSeconds(), d.CPUSeconds, d.IOSeconds, d.MemoryMB,
			platform.AWSLambda().Shape.MaxDegree(d))
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	app := fs.String("app", "Video", "application name (see `propack apps`)")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	c := fs.Int("c", 5000, "concurrency level (number of logical functions)")
	ws := fs.Float64("ws", 0.5, "service-time weight W_S (expense weight is 1−W_S)")
	qos := fs.Float64("qos", 0, "p95 service-time bound in seconds (0 = no QoS; overrides -ws)")
	crashRate := fs.Float64("crashrate", 0, "plan for this mid-execution crash rate λ (reliability-aware planning)")
	retryDelay := fs.Float64("retrydelay", 5, "modeled retry delay per crash in seconds (with -crashrate)")
	memGrid := fs.String("mem.grid", "", "comma-separated memory sizes in MB: plan jointly over (degree, memory) instead of degree alone")
	registry := fs.String("registry", "", "model registry directory (cache fitted models across runs)")
	ci := fs.Bool("ci", false, "bootstrap 95% confidence intervals for the fitted parameters")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	r := core.Request{
		C: *c, Weights: core.Weights{Service: *ws, Expense: 1 - *ws}, QoSSec: *qos,
		Failure: core.FailureModel{CrashRate: *crashRate, RetryDelaySec: *retryDelay},
	}
	if *memGrid != "" {
		if *registry != "" || *ci {
			return fmt.Errorf("-mem.grid supports neither -registry nor -ci yet")
		}
		if r.SizesMB, err = server.ParseMemSizes(*memGrid); err != nil {
			return err
		}
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if len(r.SizesMB) > 0 {
		return adviseJoint(cfg, w, r, *seed)
	}
	meas := &core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: *seed}
	var models core.Models
	var overhead core.Overhead
	if *registry != "" {
		reg, err := core.NewRegistry(*registry)
		if err != nil {
			return err
		}
		cached := false
		models, cached, err = reg.LoadOrBuild(cfg.Name, w.Name(), meas, core.ProfileOptionsFor(cfg, w.Demand()))
		if err != nil {
			return err
		}
		if cached {
			fmt.Printf("(models loaded from registry %s — no probes run)\n", *registry)
		}
	} else {
		var etS []core.ETSample
		var scS []core.ScalingSample
		models, etS, scS, overhead, err = core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
		if err != nil {
			return err
		}
		fmt.Printf("probe runs    : %d interference, %d scaling (%.0f probe-seconds)\n",
			len(etS), len(scS), overhead.ExecProbeSec)
		if *ci {
			conf, err := core.ConfidenceFor(etS, models.ET.MfuncGB, scS, core.ConfidenceOptions{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Printf("95%% intervals : α %v, β1 %v, β2 %v\n", conf.Alpha, conf.B1, conf.B2)
		}
	}
	fmt.Printf("application   : %s on %s\n", w.Name(), cfg.Name)
	fmt.Printf("interference  : %s\n", models.ET)
	fmt.Printf("scaling model : %s\n", models.Scaling)
	fmt.Printf("max degree    : %d\n", models.MaxDegree)

	plan, err := models.Answer(r)
	if err != nil {
		return err
	}
	if r.QoSSec > 0 {
		fmt.Printf("QoS weights   : W_S=%.2f W_E=%.2f (p95 bound %.1fs)\n",
			plan.Weights.Service, plan.Weights.Expense, r.QoSSec)
	}
	if r.Failure.Enabled() {
		blind, err := models.PlanFor(r.C, r.Weights)
		if err != nil {
			return err
		}
		fmt.Printf("failure model : λ=%g crashes/instance-sec, retry delay %.1fs (blind degree would be %d)\n",
			r.Failure.CrashRate, r.Failure.RetryDelaySec, blind.Degree)
		// The 2%-band is defined on the failure-blind objective; under a
		// failure model just report the chosen degree.
		fmt.Printf("\nrecommended packing degree at C=%d: %d (reliability-aware)\n", r.C, plan.Degree)
	} else {
		lo, hi, err := core.NewPlanner(models).DegreeRange(r.C, plan.Weights)
		if err != nil {
			return err
		}
		fmt.Printf("\nrecommended packing degree at C=%d: %d (degrees %d–%d stay within 2%% of optimal)\n",
			r.C, plan.Degree, lo, hi)
	}
	fmt.Printf("predicted service: %.1fs (baseline %.1fs)\n", plan.PredictedServiceSec, plan.BaselineServiceSec)
	fmt.Printf("predicted expense: $%.2f (baseline $%.2f)\n", plan.PredictedExpenseUSD, plan.BaselineExpenseUSD)
	fmt.Printf("modeling bill    : $%.4f\n", overhead.TotalUSD())
	return nil
}

// adviseJoint is advise's -mem.grid branch: profile the application once
// per memory size, then answer r with the Eq. 7 scan over every (degree,
// memory) cell.
func adviseJoint(cfg platform.Config, w workload.Workload, r core.Request, seed int64) error {
	probes, err := core.GridProbesFor(cfg, w.Demand(), r.SizesMB, seed)
	if err != nil {
		return err
	}
	grid, overhead, err := core.BuildGridModels(probes)
	if err != nil {
		return err
	}
	fmt.Printf("application   : %s on %s\n", w.Name(), cfg.Name)
	fmt.Printf("memory grid   : %v MB\n", grid.MemSizesMB())
	for _, s := range grid.Sizes {
		fmt.Printf("  %6.0f MB    : %s, max degree %d\n", s.MemMB, s.Models.ET, s.Models.MaxDegree)
	}
	fmt.Printf("scaling model : %s\n", grid.Base().Scaling)

	plan, err := grid.Answer(r)
	if err != nil {
		return err
	}
	if r.QoSSec > 0 {
		fmt.Printf("QoS weights   : W_S=%.2f W_E=%.2f (p95 bound %.1fs)\n",
			plan.Weights.Service, plan.Weights.Expense, r.QoSSec)
	}
	fmt.Printf("\nrecommended config at C=%d: degree %d at %.0f MB\n", r.C, plan.Degree, plan.MemMB)
	fmt.Printf("predicted service: %.1fs (baseline %.1fs at %.0f MB, degree 1)\n",
		plan.PredictedServiceSec, plan.BaselineServiceSec, r.SizesMB[len(r.SizesMB)-1])
	fmt.Printf("predicted expense: $%.2f (baseline $%.2f)\n", plan.PredictedExpenseUSD, plan.BaselineExpenseUSD)
	fmt.Printf("modeling bill    : $%.4f\n", overhead.TotalUSD())
	return nil
}

func printMetrics(m trace.Metrics) {
	fmt.Printf("degree %d → %d instances on %s\n", m.Degree, m.Instances, m.Platform)
	fmt.Printf("  scaling time   : %.1fs\n", m.ScalingTime)
	fmt.Printf("  service total  : %.1fs  (p95 %.1fs, median %.1fs)\n",
		m.TotalService, m.TailService, m.MedianService)
	fmt.Printf("  expense        : $%.2f\n", m.ExpenseUSD)
	fmt.Printf("  function-hours : %.2f\n", m.FunctionHours)
	if m.Retries+m.Crashes+m.Timeouts > 0 {
		fmt.Printf("  faults survived: %d start retries, %d crashes, %d timeouts (%.0f failed sec, $%.4f wasted)\n",
			m.Retries, m.Crashes, m.Timeouts, m.FailedSec, m.WastedUSD)
	}
	if m.HedgesLaunched > 0 {
		fmt.Printf("  hedges         : %d launched, %d won, %d wasted\n",
			m.HedgesLaunched, m.HedgesWon, m.HedgesWasted)
	}
}

// faultFlags registers the fault-injection flag set shared by the execution
// commands and returns a function that applies it to a platform config.
func faultFlags(fs *flag.FlagSet) func(platform.Config) (platform.Config, error) {
	crashRate := fs.Float64("crashrate", 0, "mid-execution crash rate λ (crashes per instance-second)")
	startFail := fs.Float64("startfailprob", 0, "cold-start failure probability")
	stragglerP := fs.Float64("stragglerprob", 0, "per-attempt straggler probability")
	stragglerF := fs.Float64("stragglerfactor", 4, "straggler slowdown multiplier")
	execTimeout := fs.Float64("exectimeout", 0, "execution timeout in seconds (0 = none)")
	retryKind := fs.String("retry", "fixed", "retry backoff: fixed, exponential, decorrelated")
	retryBase := fs.Float64("retrybase", 0, "retry backoff base delay in seconds (0 = platform default)")
	retryCap := fs.Float64("retrycap", 60, "retry backoff delay cap in seconds")
	retryAttempts := fs.Int("retryattempts", 0, "retry budget per instance (0 = platform default)")
	hedgeQ := fs.Float64("hedge", 0, "hedge stragglers past this execution-duration percentile (0 = off)")
	hedgeMin := fs.Float64("hedgemin", 0, "minimum execution seconds before hedging")
	return func(cfg platform.Config) (platform.Config, error) {
		cfg.CrashRate = *crashRate
		cfg.StartFailureProb = *startFail
		cfg.StragglerProb = *stragglerP
		if *stragglerP != 0 {
			cfg.StragglerFactor = *stragglerF
		}
		cfg.ExecTimeoutSec = *execTimeout
		if *retryBase != 0 || *retryAttempts != 0 { // anything but unset: Validate judges it, NaN included
			kind, err := resilience.KindByName(*retryKind)
			if err != nil {
				return cfg, err
			}
			cfg.Retry = resilience.Backoff{
				Kind: kind, BaseSec: *retryBase, CapSec: *retryCap, MaxAttempts: *retryAttempts,
			}
		}
		if *hedgeQ != 0 {
			cfg.Hedge = resilience.Hedge{Quantile: *hedgeQ, MinDelaySec: *hedgeMin}
		}
		return cfg, cfg.Validate()
	}
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	app := fs.String("app", "Video", "application name")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	c := fs.Int("c", 5000, "concurrency level")
	degree := fs.Int("degree", 1, "packing degree (1 = traditional)")
	memGrid := fs.String("mem.grid", "", "comma-separated memory sizes in MB: plan jointly over (degree, memory) and run the chosen config, overriding -degree")
	ws := fs.Float64("ws", 0.5, "service-time weight W_S for -mem.grid joint planning")
	timeline := fs.String("timeline", "", "write per-instance timelines as CSV to this file")
	jsonOut := fs.Bool("json", false, "emit the run metrics as one JSON line on stdout")
	seed := fs.Int64("seed", 1, "simulation seed")
	applyFaults := faultFlags(fs)
	setupObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	if *memGrid != "" {
		// Plan on the fault-free platform (the models assume clean probes),
		// then resize the config to the chosen memory before injecting
		// faults. The notice goes to stderr so -json keeps stdout pure.
		r := core.Request{C: *c, Weights: core.Weights{Service: *ws, Expense: 1 - *ws}}
		if r.SizesMB, err = server.ParseMemSizes(*memGrid); err == nil {
			err = r.Validate()
		}
		if err != nil {
			return err
		}
		probes, err := core.GridProbesFor(cfg, w.Demand(), r.SizesMB, *seed)
		if err != nil {
			return err
		}
		grid, _, err := core.BuildGridModels(probes)
		if err != nil {
			return err
		}
		jp, err := grid.Answer(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "joint plan: degree %d at %.0f MB (predicted %.1fs, $%.2f)\n",
			jp.Degree, jp.MemMB, jp.PredictedServiceSec, jp.PredictedExpenseUSD)
		*degree = jp.Degree
		if cfg, err = cfg.WithMemory(jp.MemMB); err != nil {
			return err
		}
	}
	cfg, err = applyFaults(cfg)
	if err != nil {
		return err
	}
	sink, err := setupObs()
	if err != nil {
		return err
	}
	defer sink.closeInto(&err)
	sink.Log.Debug("run starting", "app", w.Name(), "platform", cfg.Name,
		"c", *c, "degree", *degree, "retry", cfg.Retry.String(), "hedge", cfg.Hedge.String())
	res, err := platform.Run(cfg, platform.Burst{
		Demand: w.Demand(), Functions: *c, Degree: *degree, Seed: *seed,
		Recorder: sink.Rec, Label: w.Name(),
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := trace.WriteMetricsJSON(os.Stdout, trace.FromResult(res)); err != nil {
			return err
		}
	} else {
		printMetrics(trace.FromResult(res))
	}
	if *timeline != "" {
		if err := writeTimelineFile(*timeline, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  timelines      : %s (%d rows)\n", *timeline, res.Instances())
	}
	return nil
}

// writeTimelineFile writes res's per-instance CSV to path. The close error
// is reported: on a file just written it can be the only sign the data did
// not reach the disk.
func writeTimelineFile(path string, res *platform.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteTimelinesCSV(f, res); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func cmdSweep(args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	app := fs.String("app", "Video", "application name")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	c := fs.Int("c", 2000, "concurrency level")
	memGrid := fs.String("mem.grid", "", "comma-separated memory sizes in MB: sweep degrees at every size and add a mem column")
	jsonOut := fs.Bool("json", false, "emit one JSON line of metrics per degree on stdout")
	seed := fs.Int64("seed", 1, "simulation seed")
	setupObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	sink, err := setupObs()
	if err != nil {
		return err
	}
	defer sink.closeInto(&err)
	if *memGrid != "" {
		sizes, err := server.ParseMemSizes(*memGrid)
		if err != nil {
			return err
		}
		return sweepGrid(cfg, w, sizes, *c, *seed, *jsonOut, sink)
	}
	all, err := baseline.SweepWithOptions(cfg, w.Demand(), *c, *seed, cfg.Shape.MaxDegree(w.Demand()),
		baseline.SweepOptions{Recorder: sink.Rec})
	if err != nil {
		return err
	}
	if *jsonOut {
		for _, m := range all {
			if err := trace.WriteMetricsJSON(os.Stdout, m); err != nil {
				return err
			}
		}
		return nil
	}
	tab := &trace.Table{
		Title:  fmt.Sprintf("%s on %s at C=%d", w.Name(), cfg.Name, *c),
		Header: []string{"degree", "instances", "scaling", "service", "p95", "expense"},
	}
	for _, m := range all {
		tab.AddRow(fmt.Sprint(m.Degree), fmt.Sprint(m.Instances),
			fmt.Sprintf("%.1fs", m.ScalingTime), fmt.Sprintf("%.1fs", m.TotalService),
			fmt.Sprintf("%.1fs", m.TailService), fmt.Sprintf("$%.2f", m.ExpenseUSD))
	}
	return tab.Fprint(os.Stdout)
}

// sweepGrid is sweep's -mem.grid branch: one degree sweep per memory size,
// sizes in ascending order, rendered as a single table with a mem column
// (or, with -json, one line per (size, degree) carrying a mem_mb field).
func sweepGrid(cfg platform.Config, w workload.Workload, sizes []float64, c int, seed int64, jsonOut bool, sink *obsSink) error {
	type sized struct {
		memMB float64
		rows  []trace.Metrics
	}
	// A grid the planner would refuse is refused here too.
	if err := core.CheckSizeGrid(sizes); err != nil {
		return err
	}
	var swept []sized
	for _, mb := range sizes {
		scfg, err := cfg.WithMemory(mb)
		if err != nil {
			return err
		}
		rows, err := baseline.SweepWithOptions(scfg, w.Demand(), c, seed, scfg.Shape.MaxDegree(w.Demand()),
			baseline.SweepOptions{Recorder: sink.Rec})
		if err != nil {
			return err
		}
		swept = append(swept, sized{memMB: mb, rows: rows})
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, s := range swept {
			for _, m := range s.rows {
				row := struct {
					MemMB float64 `json:"mem_mb"`
					trace.Metrics
				}{s.memMB, m}
				if err := enc.Encode(row); err != nil {
					return err
				}
			}
		}
		return nil
	}
	tab := &trace.Table{
		Title:  fmt.Sprintf("%s on %s at C=%d, memory grid %v MB", w.Name(), cfg.Name, c, sizes),
		Header: []string{"mem", "degree", "instances", "scaling", "service", "p95", "expense"},
	}
	for _, s := range swept {
		for _, m := range s.rows {
			tab.AddRow(fmt.Sprintf("%.0fMB", s.memMB), fmt.Sprint(m.Degree), fmt.Sprint(m.Instances),
				fmt.Sprintf("%.1fs", m.ScalingTime), fmt.Sprintf("%.1fs", m.TotalService),
				fmt.Sprintf("%.1fs", m.TailService), fmt.Sprintf("$%.2f", m.ExpenseUSD))
		}
	}
	return tab.Fprint(os.Stdout)
}

func cmdLocal(args []string) (err error) {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	app := fs.String("app", "Stateless Cost", "application name")
	c := fs.Int("c", 0, "logical function count (0 = one instance of -degree functions)")
	degree := fs.Int("degree", 4, "functions packed as goroutines per instance")
	cores := fs.Int("cores", 2, "cores each packed instance may use")
	seed := fs.Int64("seed", 1, "input seed")
	setupObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	if *c == 0 {
		*c = *degree
	}
	sink, err := setupObs()
	if err != nil {
		return err
	}
	defer sink.closeInto(&err)
	fmt.Printf("running %d × %s packed %d per instance on %d cores…\n", *c, w.Name(), *degree, *cores)
	res, err := localfaas.Run(localfaas.Job{
		Workload: w, Functions: *c, Degree: *degree,
		CoresPerInstance: *cores, Seed: *seed, Recorder: sink.Rec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("wall time: %.2fs\n", res.Metrics.TotalService)
	fn := 0
	for _, inst := range res.Instances {
		for _, sum := range inst.Checksums {
			fmt.Printf("  function %2d checksum %016x\n", fn, sum)
			fn++
		}
	}
	return nil
}

func cmdHetero(args []string) (err error) {
	fs := flag.NewFlagSet("hetero", flag.ExitOnError)
	appA := fs.String("a", "Video", "first application")
	countA := fs.Int("ca", 1000, "first application's concurrency")
	appB := fs.String("b", "Smith-Waterman", "second application")
	countB := fs.Int("cb", 1000, "second application's concurrency")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	ws := fs.Float64("ws", 0.5, "service-time weight W_S")
	seed := fs.Int64("seed", 1, "simulation seed")
	setupObs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wa, err := workload.ByName(*appA)
	if err != nil {
		return err
	}
	wb, err := workload.ByName(*appB)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	apps := []orchestrator.MixedApp{
		{Workload: wa, Count: *countA},
		{Workload: wb, Count: *countB},
	}
	job, err := orchestrator.PlanMixedJob(cfg, apps, core.Weights{Service: *ws, Expense: 1 - *ws}, *seed)
	if err != nil {
		return err
	}
	sink, err := setupObs()
	if err != nil {
		return err
	}
	defer sink.closeInto(&err)
	base, perApp, mixed, err := job.Compare(sink.Rec)
	if err != nil {
		return err
	}
	fmt.Printf("job: %d × %s + %d × %s on %s\n\n", *countA, wa.Name(), *countB, wb.Name(), cfg.Name)
	fmt.Printf("%-28s %10s %12s %10s\n", "deployment", "instances", "service", "expense")
	rowOut := func(name string, inst int, m trace.Metrics) {
		fmt.Printf("%-28s %10d %11.1fs %9s\n", name, inst, m.TotalService, fmt.Sprintf("$%.2f", m.ExpenseUSD))
	}
	rowOut("unpacked", base.Instances, base)
	rowOut(fmt.Sprintf("per-app (degrees %v)", job.Degrees), perApp.Instances, perApp)
	rowOut(fmt.Sprintf("hetero planner (%s)", job.Plan.Strategy), job.Plan.Instances(), mixed)
	fmt.Printf("\nmodeling overhead: $%.2f\n", job.Overhead.TotalUSD())
	return nil
}

func cmdPareto(args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ExitOnError)
	app := fs.String("app", "Video", "application name")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	c := fs.Int("c", 5000, "concurrency level")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	meas := &core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: *seed}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
	if err != nil {
		return err
	}
	frontier, err := models.ParetoFrontier(*c)
	if err != nil {
		return err
	}
	tab := &trace.Table{
		Title:  fmt.Sprintf("Pareto frontier: %s on %s at C=%d (predicted)", w.Name(), cfg.Name, *c),
		Header: []string{"degree", "service", "expense"},
	}
	for _, p := range frontier {
		tab.AddRow(fmt.Sprint(p.Degree), fmt.Sprintf("%.1fs", p.ServiceSec),
			fmt.Sprintf("$%.2f", p.ExpenseUSD))
	}
	return tab.Fprint(os.Stdout)
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	app := fs.String("app", "Video", "application name")
	plat := fs.String("platform", "aws", "platform: aws, google, azure, funcx")
	c := fs.Int("c", 2000, "concurrency level of the validation runs")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	cfg, err := server.PlatformByName(*plat)
	if err != nil {
		return err
	}
	meas := &core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: *seed}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
	if err != nil {
		return err
	}
	var observed []core.Observation
	for _, deg := range core.SampleDegrees(models.MaxDegree) {
		res, err := platform.Run(cfg, platform.Burst{
			Demand: w.Demand(), Functions: *c, Degree: deg, Seed: *seed + 101,
		})
		if err != nil {
			break
		}
		observed = append(observed, core.Observation{
			Degree:     deg,
			ServiceSec: res.TotalServiceTime(),
			ExpenseUSD: res.ExpenseUSD(),
		})
	}
	sv, ev, err := models.ValidateModels(*c, observed, core.PaperValidationDF)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, %d observations at C=%d (df=%d, 99.5%% confidence)\n",
		w.Name(), cfg.Name, len(observed), *c, core.PaperValidationDF)
	fmt.Printf("  %v\n  %v\n", sv, ev)
	if !sv.Accepted || !ev.Accepted {
		return fmt.Errorf("model rejected by the χ² test")
	}
	return nil
}
