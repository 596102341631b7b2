package sim

// A monotone lane is a FIFO of events owned by one producer whose
// emits arrive in non-decreasing time order — a station's completions: the
// clock never runs backwards and the service time never shrinks, so now + d
// only grows. Such a stream is already sorted by the engine's total order
// (at, seq), and sorting it again in the heap is wasted work. The
// lane holds it in a ring instead, and Engine.next merges the lane heads
// with the heap's head by (at, seq): the dispatch order is the one a single
// heap would give, by construction.
//
// Monotonicity is checked at every emit, never assumed. An emit earlier than
// the lane's resident tail goes to the heap like any other event,
// so a producer that is only mostly monotone costs nothing in correctness:
// each lane stays sorted, and the merge takes the minimum of sorted sources.
// (DESIGN §15 has the argument in full, §16 the event budget it buys.)
type lane struct {
	// ring is a power-of-two circular buffer holding n events from head.
	ring []laneEvent
	head int
	n    int
	kind uint8
}

// laneEvent is an event word without its kind, which the lane carries.
type laneEvent struct {
	at      float64
	seq     uint64
	subject int32
}

const laneMinRing = 16

func (l *lane) push(ev laneEvent) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
}

// tailAt is the time of the lane's last resident event: the floor for the
// next one. The lane must be non-empty.
func (l *lane) tailAt() float64 {
	return l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at
}

// grow doubles the ring, unwrapping the resident events to its start. The
// ring is sized by the lane's peak residency (at most the producer's server
// count for a station), not by the traffic through it.
func (l *lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = laneMinRing
	}
	ring := make([]laneEvent, size)
	m := copy(ring, l.ring[l.head:])
	copy(ring[m:], l.ring[:l.head])
	l.ring = ring
	l.head = 0
}

// pop removes the head event and returns its subject. The lane must be
// non-empty.
func (l *lane) pop() int32 {
	subject := l.ring[l.head].subject
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return subject
}

// openLane opens a lane whose events dispatch as kind and returns its
// handle for emitLaneAfter. Lanes live until Reset, which closes them all
// but keeps their rings for the next run's lanes.
func (e *Engine) openLane(kind uint8) int {
	i := len(e.lanes)
	if i < cap(e.lanes) {
		e.lanes = e.lanes[:i+1]
	} else {
		e.lanes = append(e.lanes, lane{})
	}
	l := &e.lanes[i]
	l.kind = kind
	l.head = 0
	l.n = 0
	return i
}

// emitLaneAfter is EmitAfter for a lane's owner: the same validation, the
// same sequence number, the same dispatch. The event rides the lane when it
// is no earlier than the lane's resident tail, and the heap otherwise.
func (e *Engine) emitLaneAfter(li int, d float64, subject int32) {
	checkAfter(d)
	t := e.now + d
	seq := e.stamp(t)
	l := &e.lanes[li]
	if l.n > 0 && t < l.tailAt() {
		e.push(event{at: t, seq: seq, kind: l.kind, subject: subject})
		return
	}
	l.push(laneEvent{at: t, seq: seq, subject: subject})
	e.laneSeq++
}
