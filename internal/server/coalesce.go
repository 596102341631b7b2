package server

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup is the planner pool's singleflight: concurrent callers with one
// key share one computation. It guards the two slow steps that no cache sits
// in front of — a model build (the full probing pipeline) and a /v1/mixed
// plan — so a thundering herd of identical first requests costs one.

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// Do executes fn once per key among concurrent callers: the first caller
// (the leader) runs it, the rest wait for the leader's result. A waiting
// follower whose ctx expires returns ctx.Err() without cancelling the
// leader. If fn panics, followers get an error and the panic resumes on the
// leader's goroutine (the per-handler recovery turns it into a 500).
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
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
		g.mu.Unlock()
		close(c.done)
	}()
	val, err := fn()
	c.val, c.err = val, err
	panicked = false
	return val, err
}
