package sim

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// wheelQueue is a calendar-queue / hierarchical-timing-wheel scheduler: the
// engine's fast path, with O(1) amortized push and pop against the heap's
// O(log n). Three tiers hold pending events:
//
//   - ready: the dispatch run — every pending event earlier than the
//     frontier bucket's top edge, sorted by (time, seq). pop is a cursor
//     increment; a push that lands below the frontier inserts in order.
//   - buckets: a power-of-two ring over a fixed time grid. Bucket k spans
//     [base + k·width, base + (k+1)·width); events are appended unsorted and
//     extracted (then sorted) when the frontier reaches their bucket.
//   - overflow: the far-future bucket, for events beyond the ring's
//     horizon. The horizon is measured at push time, so an overflow event
//     becomes due as the frontier advances: every frontier step checks the
//     tracked overflow minimum and migrates due events into the dispatch
//     run. When the ring drains entirely, the wheel instead re-anchors its
//     grid on the earliest pending event and redistributes. Overflow is the
//     slow tier (a heap push and pop per event), so sustained spilling is
//     itself the signal that the grid no longer fits the time scale being
//     served: more than a ring's worth of spills since the last rebuild
//     triggers another.
//
// Determinism is the load-bearing wall: dispatch order must be bit-identical
// to the reference heap's (time, insertion seq) order. Two details make
// that exact rather than approximate:
//
//  1. Bucket edges are computed from the grid origin (base + k·width), never
//     accumulated, so every push and every extraction sees the same
//     boundaries bit-for-bit.
//  2. An event's bucket index is bracketed exactly — nudged until
//     edge(idx) ≤ at < edge(idx+1) — because the raw float division can be
//     off by one near a boundary. The bracket makes the at→bucket mapping a
//     pure, monotone function of the timestamp for a fixed grid, which
//     yields the two properties the total order rests on: equal timestamps
//     always share a bucket (so the per-bucket (at, seq) sort arbitrates
//     them), and no bucket-resident event ever lies below the frontier's
//     top edge (so a push below the frontier may go straight into the
//     dispatch run without consulting the ring). An up-only nudge is NOT
//     enough: an event parked one bucket high survives the extraction pass
//     that opens its true range, and later events dispatch before it — an
//     inversion the platform differential harness caught at ulp distance.
//
// The differential harness (engine_diff_test.go, FuzzEngineSchedule, and
// the platform-level heap-vs-wheel suite) holds the wheel to the heap's
// exact trace over randomized and adversarial schedules.
type wheelQueue struct {
	buckets [][]event
	mask    int64
	width   float64 // bucket time width of the current grid
	base    float64 // grid origin; bucket k spans [base+k·w, base+(k+1)·w)
	cur     int64   // absolute index of the frontier bucket
	inWheel int     // events resident in buckets
	// occupied is a bitmap over physical buckets (bit set ⇔ bucket
	// non-empty) so the frontier jumps empty runs with TrailingZeros64
	// instead of visiting every bucket — the difference between O(1) and
	// O(ring) per dispatch when the live population is sparse.
	occupied []uint64

	// overflow holds far-future events beyond the ring's horizon, as a
	// binary min-heap ordered by (at, seq). The heap matters: the frontier
	// consults the overflow minimum on every advance — an overflow event
	// becomes due the moment the frontier's top edge passes it, and must
	// migrate into the dispatch run then, not when the ring happens to
	// drain. With a heap each migration pops exactly the due events in
	// order (O(log n) apiece); a flat slice would be rescanned wholesale at
	// every landing.
	overflow []event
	// overflowMin caches overflow[0].at (+Inf when empty) for the per-
	// advance due check.
	overflowMin float64
	// spills counts events sent to overflow since the last rebuild; past the
	// ring size, push retunes the grid to the live spread.
	spills int

	ready    []event // sorted dispatch run, consumed from readyPos
	readyPos int

	// gather is rebuild's scratch: every pending event, collected before
	// redistribution. Kept (emptied) across rebuilds and resets so a routine
	// retune allocates nothing.
	gather []event
}

const (
	wheelMinBuckets = 1 << 8
	wheelMaxBuckets = 1 << 16
	// wheelMaxOccupancy triggers a retuning rebuild when the ring holds
	// more than this many events per bucket on average.
	wheelMaxOccupancy = 6
	// wheelInitWidth is the starting bucket width in virtual seconds; the
	// first rebuild replaces it with a width tuned to the live population.
	wheelInitWidth = 1e-3
)

func newWheelQueue() *wheelQueue {
	return &wheelQueue{
		buckets:     make([][]event, wheelMinBuckets),
		mask:        wheelMinBuckets - 1,
		width:       wheelInitWidth,
		overflowMin: math.Inf(1),
		occupied:    make([]uint64, wheelMinBuckets/64),
	}
}

func (w *wheelQueue) len() int {
	return len(w.ready) - w.readyPos + w.inWheel + len(w.overflow)
}

// reset drops every pending event and re-anchors the grid at time zero,
// keeping the ring, ready run, overflow heap, and rebuild scratch at their
// grown capacities so a pooled engine's next run starts warm. Grid geometry
// (bucket count) is retained too — order never depends on it, and a
// same-sized run skips the growth rebuilds.
//
// Only occupied buckets are visited: extraction truncates a drained bucket,
// zeroes its slots and clears its bit, so a bucket whose bit is clear is
// already empty — and a run that drained the ring costs no walk at all.
func (w *wheelQueue) reset() {
	if w.inWheel > 0 {
		for wi, word := range w.occupied {
			for ; word != 0; word &= word - 1 {
				p := wi<<6 + bits.TrailingZeros64(word)
				clear(w.buckets[p]) // drop callback references
				w.buckets[p] = w.buckets[p][:0]
			}
		}
		clear(w.occupied)
		w.inWheel = 0
	}
	clear(w.overflow)
	w.overflow = w.overflow[:0]
	w.overflowMin = math.Inf(1)
	w.spills = 0
	clear(w.ready)
	w.ready = w.ready[:0]
	w.readyPos = 0
	w.base = 0
	w.cur = 0
	w.width = wheelInitWidth
}

// edge returns the lower edge of absolute bucket k, computed directly from
// the grid origin so pushes and extraction agree on boundaries exactly.
func (w *wheelQueue) edge(k int64) float64 { return w.base + float64(k)*w.width }

func (w *wheelQueue) push(ev event) {
	if ev.at < w.edge(w.cur+1) {
		w.insertReady(ev)
		return
	}
	w.place(ev)
	crowded := w.inWheel > wheelMaxOccupancy*len(w.buckets) && len(w.buckets) < wheelMaxBuckets
	if crowded || w.spills > len(w.buckets) {
		w.rebuild()
	}
}

// place files an event at or beyond the frontier's top edge into its ring
// bucket, or into overflow when it lies beyond the horizon.
func (w *wheelQueue) place(ev event) {
	n := int64(len(w.buckets))
	curTop := w.edge(w.cur + 1)
	if ev.at-curTop >= float64(n-2)*w.width {
		w.spill(ev)
		return
	}
	idx := w.cur + 1 + int64((ev.at-curTop)/w.width)
	// Bracket the index exactly: edge(idx) ≤ at < edge(idx+1). The float
	// division above can be off by one in either direction near a bucket
	// boundary; both nudge loops run at most a step or two. See the type
	// comment for why exact bracketing is load-bearing.
	for idx-w.cur < n && w.edge(idx+1) <= ev.at {
		idx++
	}
	for idx > w.cur+1 && w.edge(idx) > ev.at {
		idx--
	}
	if idx-w.cur >= n {
		w.spill(ev)
		return
	}
	p := idx & w.mask
	w.buckets[p] = append(w.buckets[p], ev)
	w.occupied[p>>6] |= 1 << uint(p&63)
	w.inWheel++
}

// nextOccupiedDelta returns the distance from absolute bucket cur to the
// nearest non-empty physical bucket, searching one full revolution. The
// result is in [0, ring size); ok is false only when every bucket is empty.
func (w *wheelQueue) nextOccupiedDelta(cur int64) (int64, bool) {
	words := len(w.occupied)
	start := cur & w.mask
	wi := int(start >> 6)
	off := uint(start & 63)
	if word := w.occupied[wi] >> off; word != 0 {
		return int64(bits.TrailingZeros64(word)), true
	}
	delta := int64(64 - off)
	for k := 1; k < words; k++ {
		if word := w.occupied[(wi+k)%words]; word != 0 {
			return delta + int64(bits.TrailingZeros64(word)), true
		}
		delta += 64
	}
	// Wrapped back to the starting word: only the bits below off remain.
	if word := w.occupied[wi] & (1<<off - 1); word != 0 {
		return delta + int64(bits.TrailingZeros64(word)), true
	}
	return 0, false
}

// eventBefore is the engine's total order: time, then insertion sequence.
func eventBefore(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// spill pushes an event onto the overflow heap, keeping the cached minimum
// current so the frontier knows when migration is due.
func (w *wheelQueue) spill(ev event) {
	w.spills++
	w.overflow = append(w.overflow, ev)
	i := len(w.overflow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(w.overflow[i], w.overflow[p]) {
			break
		}
		w.overflow[i], w.overflow[p] = w.overflow[p], w.overflow[i]
		i = p
	}
	w.overflowMin = w.overflow[0].at
}

// popOverflow removes and returns the earliest overflow event.
func (w *wheelQueue) popOverflow() event {
	ev := w.overflow[0]
	last := len(w.overflow) - 1
	w.overflow[0] = w.overflow[last]
	w.overflow[last] = event{}
	w.overflow = w.overflow[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && eventBefore(w.overflow[c+1], w.overflow[c]) {
			c++
		}
		if !eventBefore(w.overflow[c], w.overflow[i]) {
			break
		}
		w.overflow[i], w.overflow[c] = w.overflow[c], w.overflow[i]
		i = c
	}
	if last > 0 {
		w.overflowMin = w.overflow[0].at
	} else {
		w.overflowMin = math.Inf(1)
	}
	return ev
}

// insertReady splices an event below the frontier into the sorted dispatch
// run. The event carries the highest seq issued so far, so its slot is
// directly after every pending event with an equal or earlier time.
func (w *wheelQueue) insertReady(ev event) {
	lo := w.readyPos // at ≥ now ≥ every consumed time, so never before the cursor
	pos := lo + sort.Search(len(w.ready)-lo, func(i int) bool { return w.ready[lo+i].at > ev.at })
	w.ready = append(w.ready, event{})
	copy(w.ready[pos+1:], w.ready[pos:])
	w.ready[pos] = ev
}

func (w *wheelQueue) peek() (float64, uint64, bool) {
	if !w.ensureReady() {
		return 0, 0, false
	}
	ev := &w.ready[w.readyPos]
	return ev.at, ev.seq, true
}

func (w *wheelQueue) pop() event {
	if !w.ensureReady() {
		panic("sim: pop from empty event queue")
	}
	ev := w.ready[w.readyPos]
	w.ready[w.readyPos].fn = nil // drop the callback reference for GC
	w.readyPos++
	// Compact the consumed prefix so a long zero-delay chain cannot grow
	// the run without bound.
	if w.readyPos == len(w.ready) {
		w.ready = w.ready[:0]
		w.readyPos = 0
	} else if w.readyPos >= 1024 && 2*w.readyPos >= len(w.ready) {
		m := copy(w.ready, w.ready[w.readyPos:])
		for i := m; i < len(w.ready); i++ {
			w.ready[i] = event{}
		}
		w.ready = w.ready[:m]
		w.readyPos = 0
	}
	return ev
}

// ensureReady makes ready[readyPos] the earliest pending event, advancing
// the frontier bucket by bucket and re-anchoring the grid when a whole
// revolution (or the ring itself) is exhausted. It reports false only when
// no events remain anywhere.
func (w *wheelQueue) ensureReady() bool {
	if w.readyPos < len(w.ready) {
		return true
	}
	w.ready = w.ready[:0]
	w.readyPos = 0
	if w.inWheel+len(w.overflow) == 0 {
		return false
	}
	n := int64(len(w.buckets))
	for advanced := int64(0); w.inWheel > 0 && advanced < n; {
		// Jump the frontier straight to the next non-empty bucket; the
		// skipped buckets hold nothing, so no event's order can depend on
		// visiting them one at a time.
		delta, ok := w.nextOccupiedDelta(w.cur)
		if !ok || advanced+delta >= n {
			break // only later-year events remain in reach: re-anchor
		}
		w.cur += delta
		advanced += delta
		top := w.edge(w.cur + 1)
		// Migrate overflow events the frontier has caught up with. An event
		// spills to overflow against the horizon at push time; once the
		// frontier's top edge passes its timestamp it is as due as anything
		// in the frontier bucket and must join this dispatch run, or later
		// ring events would jump ahead of it. Migrated and extracted events
		// are sorted together below, so the order matches a step-by-step
		// frontier exactly.
		for w.overflowMin < top {
			w.ready = append(w.ready, w.popOverflow())
		}
		migrated := len(w.ready)
		i := w.cur & w.mask
		b := w.buckets[i]
		keep := b[:0]
		for _, ev := range b {
			if ev.at < top {
				w.ready = append(w.ready, ev)
			} else {
				keep = append(keep, ev) // a later year of this bucket
			}
		}
		for j := len(keep); j < len(b); j++ {
			b[j] = event{}
		}
		w.buckets[i] = keep
		if len(keep) == 0 {
			w.occupied[i>>6] &^= 1 << uint(i&63)
		}
		if len(w.ready) > 0 {
			w.inWheel -= len(w.ready) - migrated
			sortEvents(w.ready)
			return true
		}
		w.cur++
		advanced++
	}
	// Nothing dispatchable on this grid revolution: the remaining events
	// sit in overflow or in far-future years of their buckets. Re-anchor
	// the grid at the earliest pending event instead of spinning through
	// empty years.
	w.rebuild()
	return true
}

// rebuild re-anchors the grid at the earliest pending event, retunes the
// bucket count to the population and the width to the event spread, and
// redistributes everything. It leaves ready holding (at least) the earliest
// event, sorted. Amortization: a rebuild costs O(ring + pending) and is
// triggered by the population doubling past the occupancy bound, by the
// frontier clearing a whole revolution, or by more than a ring's worth of
// events having spilled to overflow since the last one — so its cost is
// spread over the pushes or pops that caused it. The spill trigger is what
// lets the grid follow a run whose time scale drifts (station service times
// that grow by orders of magnitude while the population stays small): the
// new horizon is at least twice the live spread, so the next ring's worth of
// spills needs the scale to have roughly doubled again.
func (w *wheelQueue) rebuild() {
	all := append(w.gather[:0], w.ready[w.readyPos:]...)
	for i, b := range w.buckets {
		all = append(all, b...)
		for j := range b {
			b[j] = event{}
		}
		w.buckets[i] = b[:0]
	}
	all = append(all, w.overflow...)
	clear(w.overflow)
	w.overflow = w.overflow[:0]
	w.overflowMin = math.Inf(1)
	clear(w.ready[w.readyPos:]) // gathered above; consumed slots are already nil
	w.ready = w.ready[:0]
	w.readyPos = 0
	w.inWheel = 0
	w.spills = 0
	if len(all) == 0 {
		w.gather = all
		return
	}

	nb := len(w.buckets)
	for nb < wheelMaxBuckets && len(all) > wheelMaxOccupancy*nb/2 {
		nb *= 2
	}
	if nb != len(w.buckets) {
		w.buckets = make([][]event, nb)
		w.mask = int64(nb) - 1
		w.occupied = make([]uint64, nb/64)
	} else {
		clear(w.occupied)
	}
	minAt, maxAt := all[0].at, all[0].at
	for _, ev := range all[1:] {
		if ev.at < minAt {
			minAt = ev.at
		}
		if ev.at > maxAt {
			maxAt = ev.at
		}
	}
	if spread := maxAt - minAt; spread > 0 {
		// Spread the population over at most half the ring so the whole of
		// it fits inside the horizon (≥ 2× the spread) and the active
		// window keeps O(1) events per bucket.
		den := len(all)
		if den > nb/2 {
			den = nb / 2
		}
		w.width = spread / float64(den)
	}
	w.base = minAt
	// Guard against a grid too fine for the anchor's magnitude: if width
	// vanishes under float addition at base, edges collapse and bucket
	// indexing degenerates. Double until the grid actually advances.
	for w.base+w.width == w.base {
		w.width *= 2
	}
	w.cur = 0
	curTop := w.edge(1)
	for _, ev := range all {
		if ev.at < curTop {
			w.ready = append(w.ready, ev)
		} else {
			w.place(ev)
		}
	}
	sortEvents(w.ready)
	clear(all) // drop callback references
	w.gather = all[:0]
}

// sortEvents orders a dispatch run by the engine's total order: time, then
// insertion sequence.
func sortEvents(evs []event) {
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}
