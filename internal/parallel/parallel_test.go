package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapReturnsResultsInTaskOrder(t *testing.T) {
	got, err := Map(context.Background(), 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	}, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(context.Background(), 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("task ran")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("got %v, want empty non-nil slice", got)
	}
}

func TestMapNegativeTasks(t *testing.T) {
	if _, err := Map(context.Background(), -1, func(_ context.Context, i int) (int, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("want error for negative n")
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var running, peak atomic.Int64
	_, err := Map(context.Background(), 50, func(_ context.Context, i int) (int, error) {
		cur := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	}, Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds Workers(%d)", p, workers)
	}
}

func TestMapErrorCarriesTaskIndex(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 10, func(_ context.Context, i int) (int, error) {
		if i == 4 {
			return 0, boom
		}
		return i, nil
	}, Workers(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "task 4") {
		t.Fatalf("err = %v, want task index 4 in message", err)
	}
}

func TestMapSingleFailureDeterministicAcrossWorkerCounts(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		_, err := Map(context.Background(), 64, func(_ context.Context, i int) (int, error) {
			if i == 17 {
				return 0, boom
			}
			return i, nil
		}, Workers(workers))
		if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "task 17") {
			t.Fatalf("workers=%d: err = %v, want task 17: boom", workers, err)
		}
	}
}

func TestMapReportsLowestObservedError(t *testing.T) {
	// With workers=1 and two failing tasks, cancellation skips the later
	// one, so the reported index must be the lower.
	errA, errB := errors.New("a"), errors.New("b")
	_, err := Map(context.Background(), 10, func(_ context.Context, i int) (int, error) {
		switch i {
		case 3:
			return 0, errA
		case 7:
			return 0, errB
		}
		return i, nil
	}, Workers(1))
	if !errors.Is(err, errA) || !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("err = %v, want task 3: a", err)
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 10, func(_ context.Context, i int) (int, error) {
		t.Error("task ran after cancellation")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapCancelledMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := Map(ctx, 100, func(ctx context.Context, i int) (int, error) {
		once.Do(cancel)
		return i, nil
	}, Workers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapSkipsUnstartedTasksAfterFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	}, Workers(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d tasks ran after the first failure with workers=1, want 1", n)
	}
}

func TestWorkerCount(t *testing.T) {
	if got := WorkerCount(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("WorkerCount(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := WorkerCount(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("WorkerCount(-3) = %d, want GOMAXPROCS", got)
	}
	if got := WorkerCount(5); got != 5 {
		t.Fatalf("WorkerCount(5) = %d, want 5", got)
	}
}

func TestTaskSeedMatchesStream(t *testing.T) {
	// TaskSeed must be the same derivation sim.Stream uses, and distinct
	// across indices.
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := TaskSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TaskSeed(42, %d) collides with index %d", i, prev)
		}
		seen[s] = i
	}
	if TaskSeed(1, 5) == TaskSeed(2, 5) {
		t.Fatal("TaskSeed ignores the root seed")
	}
}

func ExampleMap() {
	squares, _ := Map(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	}, Workers(2))
	fmt.Println(squares)
	// Output: [0 1 4 9]
}
