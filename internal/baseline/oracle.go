package baseline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Objective selects the figure of merit the Oracle minimizes: total service
// time or expense, the single objectives of Fig. 15. The equal-weight
// combination the paper's Fig. 8 Oracle minimizes is the observed analogue
// of Eq. 7 and lives with that figure (experiments.oracleFromSweep).
type Objective int

const (
	// MinTotalService minimizes the time to the last instance's completion.
	MinTotalService Objective = iota
	// MinExpense minimizes the user's bill.
	MinExpense
)

func (o Objective) String() string {
	switch o {
	case MinTotalService:
		return "total service time"
	case MinExpense:
		return "expense"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

func (o Objective) value(m trace.Metrics) float64 {
	switch o {
	case MinTotalService:
		return m.TotalService
	case MinExpense:
		return m.ExpenseUSD
	default:
		panic(fmt.Sprintf("baseline: objective %d has no scalar value", int(o)))
	}
}

// Oracle performs the exhaustive brute-force search the paper uses as
// ground truth: it actually runs the application at every feasible packing
// degree and keeps the best by the objective. This is exactly what ProPack's
// analytical model exists to avoid paying for.
type Oracle struct {
	Objective Objective
}

// Name implements Strategy.
func (o Oracle) Name() string { return fmt.Sprintf("Oracle (%s)", o.Objective) }

// Execute implements Strategy.
func (o Oracle) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	m, _, err := o.Search(cfg, d, c, seed)
	return m, err
}

// Search runs the sweep and also returns the winning packing degree.
func (o Oracle) Search(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, int, error) {
	maxDeg := cfg.Shape.MaxDegree(d)
	if maxDeg < 1 {
		return trace.Metrics{}, 0, fmt.Errorf("%w: function does not fit in instance memory", ErrNoFeasibleDegree)
	}
	all, err := Sweep(cfg, d, c, seed, maxDeg)
	if err != nil {
		return trace.Metrics{}, 0, err
	}
	best, err := o.Pick(all)
	return best, best.Degree, err
}

// Pick is Search's second half: the run the objective prefers among a
// Sweep's (ties go to the lowest degree), ErrNoFeasibleDegree if there is
// none. A caller after several objectives at one (platform, demand, c, seed)
// sweeps once and picks for each.
func (o Oracle) Pick(all []trace.Metrics) (trace.Metrics, error) {
	if len(all) == 0 {
		return trace.Metrics{}, ErrNoFeasibleDegree
	}
	best := all[0]
	for _, m := range all[1:] {
		if o.Objective.value(m) < o.Objective.value(best) {
			best = m
		}
	}
	return best, nil
}

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
