package baseline

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Sweep runs the application at every packing degree from 1 to maxDeg,
// stopping at the platform's execution limit, and returns the metrics of
// each feasible run in degree order. Degrees run in parallel on GOMAXPROCS
// workers; the results are bit-identical to a sequential sweep (every
// degree's burst derives its RNG streams from the same seed, and the
// fan-in preserves degree order).
func Sweep(cfg platform.Config, d interfere.Demand, c int, seed int64, maxDeg int) ([]trace.Metrics, error) {
	return SweepWithOptions(cfg, d, c, seed, maxDeg, SweepOptions{})
}

// SweepOptions configures SweepWithOptions.
type SweepOptions struct {
	// Workers bounds the parallel degree runs; 0 means GOMAXPROCS and 1
	// reproduces the historical sequential sweep. Any value yields
	// byte-identical results.
	Workers int
	// Recorder receives every feasible degree's burst records in degree
	// order (nil disables recording). Parallel runs record into per-degree
	// obs.Tape buffers that are replayed in order, so the recorder sees the
	// exact call sequence of a sequential sweep.
	Recorder obs.Recorder
}

// degreeRun is one degree's outcome inside the parallel fan-out. Errors
// ride in the value (not the task error) because an exec-limit failure is
// a normal truncation signal, not a sweep failure.
type degreeRun struct {
	m    trace.Metrics
	err  error
	tape *obs.Tape
}

// SweepWithOptions is the engine behind Sweep. Each packing degree is an
// independent task: it shares no RNG state with its neighbours
// (platform.Run derives its streams from (seed, platform)), so the sweep
// parallelizes without perturbing a single sample. The fan-in
// then applies the sequential contract in degree order: stop at the first
// exec-limit degree, fail on the first real error, and replay recorded
// bursts in degree order.
func SweepWithOptions(cfg platform.Config, d interfere.Demand, c int, seed int64, maxDeg int, opt SweepOptions) ([]trace.Metrics, error) {
	if maxDeg < 1 {
		return nil, nil
	}
	runs, err := parallel.Map(context.Background(), maxDeg, func(_ context.Context, i int) (degreeRun, error) {
		var r degreeRun
		var rec obs.Recorder
		if opt.Recorder != nil {
			r.tape = &obs.Tape{}
			rec = r.tape
		}
		r.m, r.err = orchestrator.ExecuteObserved(cfg, d, c, i+1, seed, rec, "sweep")
		return r, nil
	}, parallel.Workers(opt.Workers))
	if err != nil {
		return nil, err
	}
	out := make([]trace.Metrics, 0, len(runs))
	for _, r := range runs {
		if errors.Is(r.err, platform.ErrExecLimit) {
			break // higher degrees only get slower; stop the sweep
		}
		if r.err != nil {
			return nil, r.err
		}
		r.tape.Replay(opt.Recorder)
		out = append(out, r.m)
	}
	return out, nil
}

// SweepPlanner is the planner over a Sweep's runs at concurrency c: the
// Oracle of Figs. 8 and 15, whose degree is the Eq. 7 argmin ProPack takes,
// scanned by the same code over measured columns instead of modeled ones
// (core.MeasuredPlanner). runs[i] is degree i+1, as Sweep returns them; an
// empty sweep — a function that fits no instance — is an error.
func SweepPlanner(c int, runs []trace.Metrics) (*core.Planner, error) {
	n := len(runs)
	cols := make([]float64, 4*n)
	total, tail, median, expense := cols[:n], cols[n:2*n], cols[2*n:3*n], cols[3*n:]
	for i, m := range runs {
		total[i], tail[i], median[i], expense[i] = m.TotalService, m.TailService, m.MedianService, m.ExpenseUSD
	}
	return core.MeasuredPlanner(c, total, tail, median, expense)
}
