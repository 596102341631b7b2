package sim

import "container/heap"

// heapQueue is the original container/heap event scheduler, retained as the
// reference implementation the wheel is differentially tested against. Its
// order is the specification: a binary heap keyed on (time, insertion seq)
// trivially dispatches the total order, at O(log n) per operation.
type heapEvents []*event

func (h heapEvents) Len() int { return len(h) }
func (h heapEvents) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h heapEvents) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *heapEvents) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *heapEvents) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type heapQueue struct {
	events heapEvents
	// free recycles dispatched events so a burst of N instances costs O(1)
	// event allocations in steady state instead of one per scheduled
	// callback. Events are engine-local, so no synchronization is needed.
	free []*event
}

func (q *heapQueue) push(ev event) {
	var e *event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		e = new(event)
	}
	*e = ev
	heap.Push(&q.events, e)
}

func (q *heapQueue) peek() (float64, uint64, bool) {
	if len(q.events) == 0 {
		return 0, 0, false
	}
	return q.events[0].at, q.events[0].seq, true
}

func (q *heapQueue) pop() event {
	e := heap.Pop(&q.events).(*event)
	ev := *e
	// Drop the callback reference before recycling so the closure (and
	// anything it captures) can be collected — a recycled slot must never
	// resurrect an already-dispatched callback.
	e.fn = nil
	q.free = append(q.free, e)
	return ev
}

func (q *heapQueue) len() int { return len(q.events) }

// reset drops every pending event onto the freelist (callback references
// cleared) so a pooled engine restarts without reallocating slots.
func (q *heapQueue) reset() {
	for i, e := range q.events {
		e.fn = nil
		q.free = append(q.free, e)
		q.events[i] = nil
	}
	q.events = q.events[:0]
}
