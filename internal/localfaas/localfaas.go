// Package localfaas is a miniature function-as-a-service runtime that
// executes the benchmark workloads' *real Go kernels* as packed function
// instances on the local machine. It is the bridge between the datacenter
// simulator (which scales to C=5000 but computes nothing) and the raw
// packed executor (which computes but has no platform semantics):
//
//   - each instance hosts `degree` functions running concurrently as
//     goroutines on a bounded core budget (the packing ground truth is the
//     host's actual scheduler and caches);
//   - instance starts are spaced by a pluggable control-plane delay model —
//     typically a ScalingModel fitted against a simulated or real platform —
//     so the scaling bottleneck is reproduced around real compute;
//   - the runtime reports the same Metrics as the simulator, computed from
//     real wall-clock timestamps.
//
// The runtime is fault-tolerant: a panicking kernel fails only its own
// instance, failed instances are retried under a resilience.Backoff policy,
// the whole job honours a context deadline, and a partial-results mode
// returns metrics over the instances that completed plus a structured
// multi-error instead of all-or-nothing.
//
// This is how the examples demonstrate ProPack end-to-end without any
// cloud: profile real kernels, fit Eq. 1 with livemeasure, plan, then
// execute the plan here and watch the real makespan drop.
package localfaas

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DelayModel maps an instance index (0-based, in admission order) to the
// control-plane delay before that instance may start.
type DelayModel func(instance int) time.Duration

// NoDelay starts every instance immediately.
func NoDelay(int) time.Duration { return 0 }

// QuadraticDelay mimics Eq. 2's shape at small scale: instance k waits
// β1·k² + β2·k (in the given time unit). Negative results clamp to zero.
func QuadraticDelay(b1, b2 float64, unit time.Duration) DelayModel {
	return func(k int) time.Duration {
		v := b1*float64(k)*float64(k) + b2*float64(k)
		if v < 0 {
			v = 0
		}
		return time.Duration(v * float64(unit))
	}
}

// Job describes one burst to execute for real.
type Job struct {
	// Workload supplies the real kernel.
	Workload workload.Workload
	// Functions is C, the number of logical function invocations.
	Functions int
	// Degree is the packing degree per instance.
	Degree int
	// CoresPerInstance bounds each instance's concurrent goroutines.
	CoresPerInstance int
	// MaxParallelInstances bounds how many instances run at once on this
	// host (the host is not a datacenter); 0 means 2.
	MaxParallelInstances int
	// Delay is the control-plane delay model; nil means NoDelay.
	Delay DelayModel
	// Seed derives each function's deterministic input.
	Seed int64
	// RatePerInstanceSec converts real instance-seconds to dollars for the
	// expense metric (0 is fine: expense reports 0).
	RatePerInstanceSec float64

	// Retry re-runs an instance whose kernel returned an error or panicked.
	// The policy's MaxAttempts is the retry budget; the zero value disables
	// retries (one attempt per instance).
	Retry resilience.Backoff
	// PartialResults makes the job return a Result covering the instances
	// that completed, plus a *JobError listing the ones that did not,
	// instead of failing the whole job on the first instance error.
	PartialResults bool

	// Recorder receives event-level observability records (queued and exec
	// spans, retry and backoff events) with wall-clock timestamps relative
	// to the job's start. Instances emit concurrently, which every
	// internal/obs recorder supports; nil disables observability.
	Recorder obs.Recorder
}

// Validate reports an error for malformed jobs.
func (j Job) Validate() error {
	switch {
	case j.Workload == nil:
		return fmt.Errorf("localfaas: nil workload")
	case j.Functions < 1:
		return fmt.Errorf("localfaas: functions %d < 1", j.Functions)
	case j.Degree < 1:
		return fmt.Errorf("localfaas: degree %d < 1", j.Degree)
	case j.CoresPerInstance < 1:
		return fmt.Errorf("localfaas: cores %d < 1", j.CoresPerInstance)
	case j.MaxParallelInstances < 0:
		return fmt.Errorf("localfaas: negative instance parallelism")
	case j.RatePerInstanceSec < 0:
		return fmt.Errorf("localfaas: negative rate")
	case !stats.FiniteNonNeg(j.RatePerInstanceSec):
		return fmt.Errorf("localfaas: non-finite rate")
	}
	return j.Retry.Validate()
}

// InstanceRecord is one instance's real execution record.
type InstanceRecord struct {
	Index     int
	Degree    int
	Start     time.Duration // since job begin, after the control-plane delay
	End       time.Duration
	Retries   int // attempts beyond the first
	Checksums []uint64
}

// completed reports whether the instance finished successfully.
func (r InstanceRecord) completed() bool { return r.End > r.Start }

// InstanceError is one instance's terminal failure.
type InstanceError struct {
	Index    int
	Attempts int
	Err      error
}

func (e InstanceError) Error() string {
	return fmt.Sprintf("instance %d failed after %d attempt(s): %v", e.Index, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e InstanceError) Unwrap() error { return e.Err }

// JobError aggregates the per-instance failures of a run. Completed reports
// how many instances still finished, so callers can judge the damage.
type JobError struct {
	Failures  []InstanceError
	Completed int
}

func (e *JobError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "localfaas: %d instance(s) failed (%d completed)", len(e.Failures), e.Completed)
	for _, f := range e.Failures {
		b.WriteString("; ")
		b.WriteString(f.Error())
	}
	return b.String()
}

// Result is a completed job.
type Result struct {
	Job       Job
	Instances []InstanceRecord
	// Failed lists instances that never completed (PartialResults mode).
	Failed  []InstanceError
	Metrics trace.Metrics
}

// Run executes the job and blocks until every instance finishes.
func Run(job Job) (*Result, error) {
	return RunContext(context.Background(), job)
}

// RunContext is Run under a context: cancelling (or exceeding the deadline
// of) ctx aborts the job promptly — instances that have not started are
// skipped, sleeping instances wake and abort, and RunContext returns without
// waiting for kernels already executing (they finish in the background and
// their results are discarded).
func RunContext(ctx context.Context, job Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	delay := job.Delay
	if delay == nil {
		delay = NoDelay
	}
	maxPar := job.MaxParallelInstances
	if maxPar == 0 {
		maxPar = 2
	}
	n := (job.Functions + job.Degree - 1) / job.Degree
	records := make([]InstanceRecord, n)
	errs := make([]error, n)

	rec := job.Recorder
	if rec != nil {
		rec.BeginBurst(obs.BurstInfo{
			Platform: "localfaas", Functions: job.Functions,
			Degree: job.Degree, Instances: n,
		})
	}
	begin := time.Now()
	sem := make(chan struct{}, maxPar)
	var wg sync.WaitGroup
	remaining := job.Functions
	for i := 0; i < n; i++ {
		deg := job.Degree
		if remaining < deg {
			deg = remaining
		}
		remaining -= deg
		wg.Add(1)
		go func(i, deg int) {
			defer wg.Done()
			// Control-plane delay happens "in the cloud": it does not hold
			// a host slot. It is interruptible by ctx. The delay plus the
			// wait for a host slot is the instance's queued span.
			if d := delay(i); d > 0 {
				if !sleepCtx(ctx, d) {
					errs[i] = ctx.Err()
					return
				}
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			if rec != nil {
				if admitted := time.Since(begin); admitted > 0 {
					rec.Span(obs.Span{
						Instance: i, Stage: obs.StageQueued,
						StartSec: 0, EndSec: admitted.Seconds(),
					})
				}
			}
			records[i], errs[i] = runInstance(ctx, job, i, deg, begin)
			if rec != nil && errs[i] == nil {
				rec.Span(obs.Span{
					Instance: i, Stage: obs.StageExec,
					StartSec: records[i].Start.Seconds(), EndSec: records[i].End.Seconds(),
				})
			}
		}(i, deg)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, fmt.Errorf("localfaas: job aborted: %w", ctx.Err())
	}

	jerr := &JobError{}
	for i, err := range errs {
		if err != nil {
			jerr.Failures = append(jerr.Failures, InstanceError{
				Index: i, Attempts: records[i].Retries + 1, Err: err,
			})
		} else {
			jerr.Completed++
		}
	}
	if len(jerr.Failures) > 0 && !job.PartialResults {
		return nil, jerr
	}
	out := &Result{Job: job, Failed: jerr.Failures}
	for _, r := range records {
		if r.completed() {
			out.Instances = append(out.Instances, r)
		}
	}
	if len(out.Instances) == 0 {
		return nil, jerr
	}
	out.Metrics = metricsFrom(job, out.Instances)
	if len(jerr.Failures) > 0 {
		return out, jerr
	}
	return out, nil
}

// runInstance executes one packed instance with per-attempt panic recovery
// and the job's retry policy. The returned record's Start/End cover the
// successful attempt.
func runInstance(ctx context.Context, job Job, i, deg int, begin time.Time) (InstanceRecord, error) {
	rng := sim.Stream(job.Seed, 0x6c6f63616c^uint64(i)) // per-instance backoff stream
	rec := InstanceRecord{Index: i, Degree: deg}
	prevDelay := 0.0
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		start := time.Since(begin)
		res, err := runPackedRecovering(job.Workload, deg, job.CoresPerInstance,
			job.Seed+int64(i)*1000003)
		if err == nil {
			rec.Start = start
			rec.End = start + res.Wall
			rec.Checksums = res.Checksums
			return rec, nil
		}
		retry := attempt + 1
		if !job.Retry.Allow(retry, time.Since(begin).Seconds(), 0) {
			return rec, err
		}
		rec.Retries++
		prevDelay = job.Retry.Delay(retry, prevDelay, rng.Float64)
		if r := job.Recorder; r != nil {
			at := time.Since(begin).Seconds()
			r.Event(obs.Event{Instance: i, Kind: obs.EventStartRetry, AtSec: at})
			r.Event(obs.Event{Instance: i, Kind: obs.EventBackoff, AtSec: at, DurSec: prevDelay})
		}
		if !sleepCtx(ctx, time.Duration(prevDelay*float64(time.Second))) {
			return rec, ctx.Err()
		}
	}
}

// runPackedRecovering shields the runtime from a panicking kernel: the panic
// becomes this instance's error instead of crashing the process. (The packed
// executor already recovers panics inside its per-function goroutines; this
// guards the setup path as well.)
func runPackedRecovering(w workload.Workload, deg, cores int, seed int64) (res workload.PackedResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("localfaas: instance panicked: %v", r)
		}
	}()
	return workload.RunPacked(w, deg, cores, seed)
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func metricsFrom(job Job, records []InstanceRecord) trace.Metrics {
	firstStart := records[0].Start
	var maxStart, maxEnd time.Duration
	ends := make([]float64, len(records))
	var funcSec float64
	retries := 0
	for i, r := range records {
		if r.Start < firstStart {
			firstStart = r.Start
		}
		if r.Start > maxStart {
			maxStart = r.Start
		}
		if r.End > maxEnd {
			maxEnd = r.End
		}
		ends[i] = r.End.Seconds()
		funcSec += (r.End - r.Start).Seconds()
		retries += r.Retries
	}
	svc := stats.Quantiles(ends, 95, 50) // tail and median from one selection
	return trace.Metrics{
		Platform:      "localfaas",
		Degree:        job.Degree,
		Instances:     len(records),
		ScalingTime:   maxStart.Seconds(),
		TotalService:  (maxEnd - firstStart).Seconds(),
		TailService:   svc[0] - firstStart.Seconds(),
		MedianService: svc[1] - firstStart.Seconds(),
		ExpenseUSD:    funcSec * job.RatePerInstanceSec,
		FunctionHours: funcSec / 3600,
		MeanExecSec:   funcSec / float64(len(records)),
		Retries:       retries,
	}
}
