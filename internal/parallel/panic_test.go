package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// recovered runs Map and returns what it panicked with, rendered as the
// daemon's recover renders it, or "" when it returned normally.
func recovered(n int, fn func(context.Context, int) (int, error), opts ...Option) (msg string, err error) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	_, err = Map(context.Background(), n, fn, opts...)
	return "", err
}

// explode is the panicking task body; its name is what the tests look for in
// the worker stack the caller receives.
func explode(i int) { panic(fmt.Sprintf("boom %d", i)) }

func TestMapPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		msg, err := recovered(40, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				explode(i)
			}
			return i, nil
		}, Workers(workers))
		if err != nil {
			t.Fatalf("workers=%d: Map returned %v, want a panic", workers, err)
		}
		for _, want := range []string{"task 5", "boom 5", "parallel.explode", "panic_test.go"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: panic value lacks %q:\n%s", workers, want, msg)
			}
		}
	}
}

func TestMapPanicSkipsLaterTasks(t *testing.T) {
	var ran atomic.Int64
	msg, _ := recovered(1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			explode(i)
		}
		return i, nil
	}, Workers(1))
	if !strings.Contains(msg, "boom 0") {
		t.Fatalf("panic value = %q, want boom 0", msg)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d tasks ran after the panic with workers=1, want 1", n)
	}
}

// bothRunning returns a barrier two tasks call so that neither finishes
// before the other has started — otherwise the first to fail cancels the
// second before it runs.
func bothRunning() func() {
	var wg sync.WaitGroup
	wg.Add(2)
	return func() { wg.Done(); wg.Wait() }
}

func TestMapPanicBeatsError(t *testing.T) {
	meet := bothRunning()
	msg, err := recovered(2, func(_ context.Context, i int) (int, error) {
		meet()
		if i == 0 {
			return 0, errors.New("plain failure")
		}
		explode(i)
		return 0, nil
	}, Workers(2))
	if err != nil || !strings.Contains(msg, "boom 1") {
		t.Fatalf("got panic %q, err %v; want the panic of task 1 over the error of task 0", msg, err)
	}
}

func TestMapPanicReportsLowestIndex(t *testing.T) {
	meet := bothRunning()
	msg, _ := recovered(2, func(_ context.Context, i int) (int, error) {
		meet()
		explode(i)
		return 0, nil
	}, Workers(2))
	if !strings.Contains(msg, "task 0") || !strings.Contains(msg, "boom 0") || strings.Contains(msg, "boom 1") {
		t.Fatalf("panic value = %q, want task 0's only", msg)
	}
}

// TestMapEveryTaskPanics loses every worker to a panic at once: Map must
// still return control to the caller (no worker is left to mark the tail
// skipped) and report one of them. Run under -race in CI.
func TestMapEveryTaskPanics(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		msg, err := recovered(64, func(_ context.Context, i int) (int, error) {
			explode(i)
			return 0, nil
		}, Workers(8))
		if err != nil || !strings.Contains(msg, "boom") {
			t.Fatalf("rep %d: got panic %q, err %v", rep, msg, err)
		}
	}
}
