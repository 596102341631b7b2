package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func newLazy(parent context.Context, d time.Duration) *lazyDeadline {
	return &lazyDeadline{Context: parent, deadline: time.Now().Add(d)}
}

// waitDone fails the test unless ch closes within the limit.
func waitDone(t *testing.T, what string, ch <-chan struct{}, limit time.Duration) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(limit):
		t.Fatalf("%s: not done after %v", what, limit)
	}
}

func TestLazyDeadline(t *testing.T) {
	const short, long = 30 * time.Millisecond, time.Hour

	t.Run("Err answers from the clock with Done never called", func(t *testing.T) {
		c := newLazy(context.Background(), short)
		if err := c.Err(); err != nil {
			t.Fatalf("Err before the deadline = %v", err)
		}
		if d, ok := c.Deadline(); !ok || !d.Equal(c.deadline) {
			t.Fatalf("Deadline = %v, %v; want %v", d, ok, c.deadline)
		}
		time.Sleep(2 * short)
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
		}
		if c.real != nil {
			t.Fatal("Err built the real context; only Done may")
		}
		c.cancel()
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err changed to %v after cancel; the first answer must stick", err)
		}
	})

	t.Run("Done closes on time", func(t *testing.T) {
		c := newLazy(context.Background(), short)
		defer c.cancel()
		start := time.Now()
		waitDone(t, "deadline", c.Done(), 5*time.Second)
		if el := time.Since(start); el < short/2 {
			t.Fatalf("Done closed after %v, before the %v deadline", el, short)
		}
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err = %v, want DeadlineExceeded", err)
		}
	})

	t.Run("parent cancel yields Canceled, before and after Done", func(t *testing.T) {
		for _, built := range []bool{false, true} {
			parent, stop := context.WithCancel(context.Background())
			c := newLazy(parent, long)
			var done <-chan struct{}
			if built {
				done = c.Done()
			}
			stop()
			if !built {
				done = c.Done()
			}
			waitDone(t, "parent cancel", done, 5*time.Second)
			if err := c.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("built=%v: Err = %v, want Canceled", built, err)
			}
			c.cancel()
		}
	})

	t.Run("cancel before Done yields Canceled and a closed Done", func(t *testing.T) {
		c := newLazy(context.Background(), long)
		c.cancel()
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want Canceled", err)
		}
		waitDone(t, "cancelled context", c.Done(), 5*time.Second)
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err after Done = %v, want Canceled", err)
		}
	})

	t.Run("cancel after Done closes it", func(t *testing.T) {
		c := newLazy(context.Background(), long)
		done := c.Done()
		c.cancel()
		waitDone(t, "cancel", done, 5*time.Second)
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want Canceled", err)
		}
	})

	t.Run("a derived context is cancelled at the deadline", func(t *testing.T) {
		c := newLazy(context.Background(), short)
		defer c.cancel()
		child, stop := context.WithCancel(c)
		defer stop()
		waitDone(t, "child of the lazy deadline", child.Done(), 5*time.Second)
		if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("child Err = %v, want DeadlineExceeded", err)
		}
		if d, ok := child.Deadline(); !ok || !d.Equal(c.deadline) {
			t.Fatalf("child Deadline = %v, %v; want the request's", d, ok)
		}
	})

	t.Run("an earlier parent deadline wins", func(t *testing.T) {
		parent, stop := context.WithTimeout(context.Background(), short)
		defer stop()
		c := newLazy(parent, long)
		defer c.cancel()
		want, _ := parent.Deadline()
		if d, ok := c.Deadline(); !ok || !d.Equal(want) {
			t.Fatalf("Deadline = %v, want the parent's %v", d, want)
		}
		time.Sleep(2 * short)
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err = %v, want the parent's DeadlineExceeded", err)
		}
	})

	t.Run("Value reaches the parent", func(t *testing.T) {
		type key struct{}
		c := newLazy(context.WithValue(context.Background(), key{}, "v"), long)
		defer c.cancel()
		if got := c.Value(key{}); got != "v" {
			t.Fatalf("Value = %v", got)
		}
	})
}
