package server

import (
	"context"
	"fmt"
	"sync"
)

// Request coalescing (singleflight): concurrent requests with an identical
// canonical key share one computation. This layers over core's sharded
// GridCache — the cache already coalesces same-concurrency table builds,
// but the daemon also wants to collapse the full request computation
// (model lookup + plan + response assembly), and to do it across
// endpoints that the cache cannot see (e.g. /v1/mixed's profiling
// pipeline). A thundering herd of identical advise calls costs one
// planner invocation.

type flightCall struct {
	done chan struct{}
	val  any
	err  error
	dups int // followers waiting on done; under flightGroup.mu
}

type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
	// detach, when set, copies the leader's value for the followers of a joined
	// flight, so a leader may compute into scratch it reclaims when Do returns.
	detach func(any) any
}

// Do executes fn once per key among concurrent callers: the first caller
// (the leader) runs it, the rest wait for the leader's result. shared
// reports whether this caller got a coalesced result. A waiting follower
// whose ctx expires returns ctx.Err() without cancelling the leader. If fn
// panics, followers get an error and the panic resumes on the leader's
// goroutine (the per-handler recovery turns it into a 500).
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	panicked := true
	defer func() {
		if panicked {
			c.err = fmt.Errorf("server: coalesced computation panicked")
		}
		g.mu.Lock()
		delete(g.m, key) // from here on nobody can join
		joined := c.dups > 0
		g.mu.Unlock()
		if joined && g.detach != nil && c.val != nil {
			c.val = g.detach(c.val)
		}
		close(c.done)
	}()
	val, err = fn()
	c.val, c.err = val, err
	panicked = false
	return val, err, false
}
