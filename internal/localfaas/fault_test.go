package localfaas

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// flakyWorkload wraps a real kernel but makes the first failCount attempts of
// selected function indices fail — by panic or by error. Attempts are counted
// per seed because the runtime re-runs an instance with the same seeds.
type flakyWorkload struct {
	inner     workload.Workload
	mu        *sync.Mutex
	attempts  map[int64]int
	failEvery int64 // seeds ≡ 0 (mod failEvery) fail
	failCount int   // how many attempts fail before succeeding
	panicky   bool  // fail by panic instead of error
}

func newFlaky(failEvery int64, failCount int, panicky bool) *flakyWorkload {
	return &flakyWorkload{
		inner:     workload.StatelessCost{Images: 1, SrcSize: 48},
		mu:        &sync.Mutex{},
		attempts:  map[int64]int{},
		failEvery: failEvery,
		failCount: failCount,
		panicky:   panicky,
	}
}

func (w *flakyWorkload) Name() string             { return "Flaky" }
func (w *flakyWorkload) Demand() interfere.Demand { return w.inner.Demand() }
func (w *flakyWorkload) NewTask(seed int64) workload.Task {
	return flakyTask{w: w, seed: seed, inner: w.inner.NewTask(seed)}
}

type flakyTask struct {
	w     *flakyWorkload
	seed  int64
	inner workload.Task
}

func (t flakyTask) Run() (uint64, error) {
	t.w.mu.Lock()
	attempt := t.w.attempts[t.seed]
	t.w.attempts[t.seed]++
	t.w.mu.Unlock()
	if t.seed%t.w.failEvery == 0 && attempt < t.w.failCount {
		if t.w.panicky {
			panic("injected kernel panic")
		}
		return 0, errors.New("injected kernel error")
	}
	return t.inner.Run()
}

// sleepWorkload's tasks block for a fixed duration — used to test context
// cancellation against genuinely running kernels.
type sleepWorkload struct{ d time.Duration }

func (w sleepWorkload) Name() string             { return "Sleep" }
func (w sleepWorkload) Demand() interfere.Demand { return interfere.Demand{} }
func (w sleepWorkload) NewTask(int64) workload.Task {
	return sleepTask{w.d}
}

type sleepTask struct{ d time.Duration }

func (t sleepTask) Run() (uint64, error) { time.Sleep(t.d); return 1, nil }

func retryFast(maxAttempts int) resilience.Backoff {
	return resilience.Backoff{Kind: resilience.Fixed, BaseSec: 0.001, MaxAttempts: maxAttempts}
}

func TestSurvivesKernelPanicViaRetry(t *testing.T) {
	// Every function whose seed is divisible by 3 panics on its first
	// attempt; the retry policy re-runs the instance and the job completes.
	res, err := Run(Job{
		Workload:         newFlaky(3, 1, true),
		Functions:        8,
		Degree:           2,
		CoresPerInstance: 2,
		Seed:             3, // instance seeds 3, 3+1000003, ... hit seed%3==0
		Retry:            retryFast(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 4 {
		t.Fatalf("instances %d, want 4", len(res.Instances))
	}
	retries := 0
	for _, r := range res.Instances {
		retries += r.Retries
	}
	if retries == 0 {
		t.Fatal("panicking kernels should have forced retries")
	}
	if res.Metrics.Retries != retries {
		t.Fatalf("metrics retries %d != record sum %d", res.Metrics.Retries, retries)
	}
}

func TestKernelErrorWithoutRetryFailsJob(t *testing.T) {
	// The zero retry policy means one attempt per instance: the injected
	// error surfaces as a structured JobError naming the instance.
	_, err := Run(Job{
		Workload:         newFlaky(1, 1000, false), // every seed always fails
		Functions:        4,
		Degree:           2,
		CoresPerInstance: 2,
		Seed:             1,
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("expected *JobError, got %T: %v", err, err)
	}
	if len(jerr.Failures) != 2 || jerr.Completed != 0 {
		t.Fatalf("bad aggregation: %+v", jerr)
	}
	if jerr.Failures[0].Attempts != 1 {
		t.Fatalf("attempts %d, want 1 without retries", jerr.Failures[0].Attempts)
	}
}

func TestExhaustedRetriesFailJob(t *testing.T) {
	// Functions with seed ≡ 0 (mod 2·1000003) fail permanently: with
	// Seed=0 and degree 1 that is exactly the even-indexed instances.
	res, err := Run(Job{
		Workload:         newFlaky(2*1000003, 1000, false),
		Functions:        6,
		Degree:           1,
		CoresPerInstance: 1,
		Seed:             0,
		Retry:            retryFast(1),
	})
	if res != nil {
		t.Fatalf("failed job returned a result: %+v", res)
	}
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("expected *JobError, got %v", err)
	}
	if len(jerr.Failures) != 3 || jerr.Completed != 3 {
		t.Fatalf("got %d failed, %d completed; want 3/3", len(jerr.Failures), jerr.Completed)
	}
	// Failed instances exhausted their retry budget.
	for _, f := range jerr.Failures {
		if f.Attempts != 2 { // 1 attempt + 1 retry
			t.Fatalf("instance %d: attempts %d, want 2", f.Index, f.Attempts)
		}
	}
}

func TestContextDeadlineAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := RunContext(ctx, Job{
		Workload:         sleepWorkload{5 * time.Second},
		Functions:        4,
		Degree:           1,
		CoresPerInstance: 1,
		Seed:             1,
	})
	elapsed := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	// The abort must not wait out the 5 s kernels.
	if elapsed > 2*time.Second {
		t.Fatalf("abort took %v; should return promptly at the deadline", elapsed)
	}
}

func TestCancelDuringControlPlaneDelay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(30 * time.Millisecond); cancel() }()
	begin := time.Now()
	_, err := RunContext(ctx, Job{
		Workload:         sleepWorkload{time.Millisecond},
		Functions:        3,
		Degree:           1,
		CoresPerInstance: 1,
		Delay:            func(int) time.Duration { return 10 * time.Second },
		Seed:             1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected Canceled, got %v", err)
	}
	if time.Since(begin) > 2*time.Second {
		t.Fatal("cancel did not interrupt the control-plane sleep")
	}
}

func TestRetryBackoffRespectsContext(t *testing.T) {
	// Permanent failures with long backoff: cancelling mid-backoff must
	// interrupt the sleep.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := RunContext(ctx, Job{
		Workload:         newFlaky(1, 1000, false),
		Functions:        1,
		Degree:           1,
		CoresPerInstance: 1,
		Seed:             1,
		Retry:            resilience.Backoff{Kind: resilience.Fixed, BaseSec: 30, MaxAttempts: 5},
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if time.Since(begin) > 2*time.Second {
		t.Fatal("backoff sleep ignored the context")
	}
}
