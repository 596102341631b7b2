// Package parallel is the deterministic fan-out engine behind the
// repository's embarrassingly parallel sweeps: degree sweeps, repetition
// loops in the figure generators, and profiling probes. It runs n
// independent tasks on a bounded worker pool with a contract stronger than
// the usual errgroup idiom:
//
//   - Bit-for-bit determinism. Results are returned in task order and each
//     task must be a pure function of its index (deriving any randomness
//     from (seed, taskIndex) via sim.SplitSeed / sim.Stream), so the output
//     is byte-identical for every worker count and goroutine schedule.
//     Map(workers=1) is the sequential oracle; Map(workers=N) must — and,
//     property-tested, does — produce exactly the same bytes.
//   - Bounded workers. At most Workers goroutines run tasks; the default is
//     GOMAXPROCS. Excess tasks queue on a shared atomic cursor, so a sweep
//     of 10 000 cells never spawns 10 000 goroutines.
//   - Cancellation and first-error propagation. The context is forwarded to
//     every task; when a task fails, the remaining unstarted tasks are
//     skipped and the failed task with the lowest index is reported.
//   - Panics surface where the caller can catch them. A task that panics
//     cancels the fan-out as an error does, and Map panics again on the
//     caller's goroutine with the task's message and stack.
//
// What the package deliberately does not do: share RNG streams between
// tasks, reorder results by completion time, or let one task observe
// another's output. Those are exactly the behaviours that break the
// sequential ≡ parallel equivalence the test harness locks in.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

type options struct {
	workers int
}

// Option configures a Map call.
type Option func(*options)

// Workers bounds the number of concurrent tasks. n <= 0 selects the
// default, GOMAXPROCS; n == 1 degenerates to sequential in-order execution
// (the oracle the equivalence tests compare against).
func Workers(n int) Option {
	return func(o *options) { o.workers = n }
}

// workerCount resolves a Workers option value to the effective pool size.
func workerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TaskSeed derives the RNG seed of task i from the fan-out's root seed
// using the simulator's splittable SplitMix64 derivation (sim.SplitSeed).
// Tasks that need randomness must seed their own stream this way — never
// share a *sim.RNG across tasks — so values are independent of worker
// count and scheduling.
func TaskSeed(seed int64, i int) int64 {
	return sim.SplitSeed(seed, uint64(i))
}

// errSkipped marks tasks that never ran because an earlier failure (or the
// caller's context) cancelled the fan-out. It is internal: Map reports the
// causing error, not the skips.
var errSkipped = errors.New("parallel: task skipped after cancellation")

// errPanicked marks, in the same way, a task that panicked; the entry wraps
// it around the panic value and the worker's stack.
var errPanicked = errors.New("panicked")

// Map runs fn(ctx, i) for i in [0, n) on a bounded worker pool and returns
// the results in task order. The worker count comes from the Workers
// option (default GOMAXPROCS).
//
// Error contract: if any task fails, Map cancels the remaining unstarted
// tasks and returns the error of the lowest-indexed task that actually
// failed, wrapped with its index. If the caller's ctx is cancelled, Map
// returns ctx's error. On error the result slice is nil.
//
// Panic contract: left alone, a task's panic would end the process from a
// worker goroutine, past every recover on the caller's stack. The worker
// recovers it and cancels the rest; once all workers have stopped, Map
// panics on the caller's goroutine with a string holding the value and
// worker stack of the lowest-indexed task that panicked — in preference to
// any task's error.
//
// Determinism contract: when no task fails, the returned slice is
// byte-identical for every worker count — each task must depend only on
// its index (and seeds derived via TaskSeed), never on shared mutable
// state or on other tasks' completion order.
func Map[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), opts ...Option) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative task count %d", n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return []T{}, nil
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	workers := workerCount(o.workers)
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if v := recover(); v != nil {
					stack := make([]byte, 16<<10) // truncated if deeper: the top frames are the ones wanted
					stack = stack[:runtime.Stack(stack, false)]
					errs[i] = fmt.Errorf("%w: %v\n\n%s", errPanicked, v, stack)
					cancel()
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					errs[i] = errSkipped
					continue
				}
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	var failed error
	skipped := false
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, errPanicked):
			panic(fmt.Sprintf("parallel: task %d %v", i, err))
		case errors.Is(err, errSkipped):
			skipped = true
		case failed == nil:
			failed = fmt.Errorf("parallel: task %d: %w", i, err)
		}
	}
	if failed != nil {
		return nil, failed
	}
	if skipped {
		// No task failed of its own accord, yet some never ran: the
		// caller's context was cancelled mid-flight.
		return nil, ctx.Err()
	}
	return out, nil
}
