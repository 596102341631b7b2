package server

import (
	"context"
	"sync"
	"time"
)

// lazyDeadline is the per-request deadline. context.WithTimeout arms a timer
// and links into the parent's cancellation tree at construction, yet a served
// request almost never waits on its context (it computes inline; only a
// waiter on the planner pool's flight or the delayms hook selects on Done).
// So that work waits for the first Done; until then Deadline and Err
// answer from the clock and the parent. Allocated per request, never pooled:
// a goroutine that derived from it may hold it after the request returns.
type lazyDeadline struct {
	context.Context // the parent: Value, and its own deadline and cancellation
	deadline        time.Time

	mu   sync.Mutex
	err  error              // latched by the first non-nil answer, like a real context's
	real context.Context    // context.WithDeadline(parent, deadline), built by the first Done
	stop context.CancelFunc // real's cancel
}

func (c *lazyDeadline) Deadline() (time.Time, bool) {
	if d, ok := c.Context.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

func (c *lazyDeadline) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.real == nil {
		c.real, c.stop = context.WithDeadline(c.Context, c.deadline)
		if c.err != nil {
			c.stop()
		}
	}
	return c.real.Done()
}

func (c *lazyDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		switch {
		case c.real != nil:
			c.err = c.real.Err()
		case c.Context.Err() != nil:
			c.err = c.Context.Err()
		case !time.Now().Before(c.deadline):
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// cancel releases the request's context when the handler returns. It reads no
// clock: nobody is left to tell an unobserved expiry from the cancellation.
func (c *lazyDeadline) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.Canceled
	}
	if c.stop != nil {
		c.stop()
	}
}
