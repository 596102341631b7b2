package sim

import (
	"testing"
)

// fuzzSink receives the typed events of a fuzz program. Plain kinds just
// trace; the respawn kind additionally emits a typed zero-delay follow-up
// and a small-delay closure event, so typed and closure events keep feeding
// each other's (at, seq) stream from inside a dispatch. A producer kind
// names the producer that emitted it; a third of first-generation producer
// events re-emit as their producer from inside the dispatch, at a delay that
// depends on the subject alone — so sometimes earlier than the producer's
// last event.
type fuzzSink struct {
	s        *spec
	schedule func(d float64, respawn int)
}

const (
	fuzzKindPlain uint8 = iota + 1
	fuzzKindRespawn
	fuzzKindProducer0 // producer i emits fuzzKindProducer0 + i

	fuzzMaxProducers = 4
)

func (f *fuzzSink) Dispatch(kind uint8, subject int32) {
	f.s.dispatched(int(subject), true)
	switch {
	case kind == fuzzKindRespawn:
		f.s.emitAfter(0, fuzzKindPlain, int(subject)+10_000)
		f.schedule(float64(subject%7)*1e-3+1e-5, 0)
	case kind >= fuzzKindProducer0 && subject < 10_000 && subject%3 == 0:
		f.s.emitAfter(float64(subject%5)*1e-3, kind, int(subject)+20_000)
	}
}

// fuzzProgram interprets raw bytes as a deterministic schedule and runs it
// under the spec. Three bytes per instruction: an opcode and a 16-bit
// operand. The opcode selects a delay scale (from sub-microsecond up to a
// far future) for a closure or typed event, a partial RunUntil drain, or a
// nested respawn whose callbacks schedule further events — closure respawns schedule closures, typed respawns emit
// typed and closure events both, so a single program interleaves both event
// kinds in one (at, seq) stream. Opcodes 12–15 drive producers, each a typed
// kind of its own, as a station's completions are: open or select one, emit
// as it at a delay the operand sets (a run of growing operands emits in time
// order, an equal one ties, a shrinking one emits earlier than the
// producer's last event), and tie two producers with a closure at zero
// delay. Ids stay below 10 000 (at most seven events per instruction), so
// the sink's re-emits at +10 000 and +20 000 never collide with them.
func fuzzProgram(s *spec, data []byte) {
	eng := s.eng
	nextID := 0
	var schedule func(d float64, respawn int)
	schedule = func(d float64, respawn int) {
		id := nextID
		nextID++
		s.after(d, id, func() {
			if respawn > 0 {
				schedule(0, 0)
				schedule(d/3+1e-5, respawn-1)
			}
		})
	}
	sink := &fuzzSink{s: s, schedule: schedule}
	s.clo.SetSink(sink)
	emit := func(d float64, kind uint8) {
		id := nextID
		nextID++
		s.emitAfter(d, kind, id)
	}
	// cur is the selected one of the producers opened; the first producer
	// opcode of any kind opens producer 0.
	producers, cur := 0, 0
	openProducer := func() {
		cur = producers
		producers++
	}
	emitProducer := func(d float64) {
		if producers == 0 {
			openProducer()
		}
		emit(d, fuzzKindProducer0+uint8(cur))
	}
	for i := 0; i+2 < len(data); i += 3 {
		op := data[i]
		v := float64(uint16(data[i+1])<<8 | uint16(data[i+2]))
		switch op % 16 {
		case 0:
			schedule(0, 0)
		case 1:
			schedule(v*1e-7, 0)
		case 2:
			schedule(v*1e-4, 0)
		case 3, 4:
			schedule(v*1e-2, 0)
		case 5:
			schedule(v, 0)
		case 6:
			schedule(v*1e3, 0) // far future
		case 7:
			s.runUntil(eng.Now() + v*1e-2)
		case 8:
			schedule(v*1e-2, 3)
		case 9:
			emit(0, fuzzKindPlain) // typed zero delay: FIFO ties with closures
		case 10:
			emit(v*1e-2, fuzzKindRespawn)
		case 11:
			emit(v*1e3, fuzzKindPlain) // typed far future
		case 12:
			if producers < fuzzMaxProducers {
				openProducer()
			} else {
				cur = int(v) % fuzzMaxProducers
			}
		case 13:
			emitProducer(v * 1e-2)
		case 14:
			emitProducer(v * 1e-5) // fine-grained: ties and near-ties between producers
		case 15:
			// A three-way tie at one instant: this producer, a closure, the
			// next producer — dispatched in that order, by seq alone.
			emitProducer(0)
			schedule(0, 0)
			cur = (cur + 1) % producers
			emitProducer(0)
		}
	}
	s.run()
}

// FuzzEngineSchedule fuzzes the engine's contract directly: any byte
// string, decoded as a schedule, must dispatch in strictly increasing
// (at, seq) order with every event exactly once and Pending() exact
// throughout. The checked-in corpus under testdata/fuzz seeds the search
// with zero-delay storms, respawn chains, ties between producers, shrinking
// delays and magnitude spans.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0, 9})
	// Every opcode once, mixed operands.
	f.Add([]byte{0, 0, 1, 1, 0, 200, 2, 3, 7, 3, 0, 50, 4, 10, 0, 5, 0, 2, 6, 0, 1, 7, 0, 90, 8, 0, 40})
	// A far-future event, then a dense chain marching the clock past it.
	f.Add([]byte{6, 0, 1, 3, 0, 1, 3, 0, 2, 3, 0, 4, 3, 1, 0, 3, 2, 0, 3, 8, 0, 8, 16, 0})
	// Zero-delay storms interleaved with partial drains.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7, 0, 1, 0, 0, 0, 7, 0, 0, 8, 0, 0})
	// Tight timestamps around shared values: tie-breaking under pressure.
	f.Add([]byte{2, 0, 10, 2, 0, 10, 2, 0, 10, 1, 0, 10, 7, 0, 10, 2, 0, 10})
	// Typed and closure events interleaved: zero-delay ties, a typed
	// respawn feeding both streams, and a typed far-future event crossed by
	// closure chains.
	f.Add([]byte{9, 0, 0, 0, 0, 0, 10, 0, 40, 8, 0, 40, 11, 0, 1, 3, 0, 2, 9, 0, 0, 7, 0, 90})
	// Producers: two fed growing, equal and then shrinking delays, a
	// three-way zero-delay tie, and a RunUntil that stops between the two
	// producers' next events before more is emitted behind them.
	f.Add([]byte{12, 0, 0, 13, 0, 100, 13, 0, 200, 13, 0, 200, 12, 0, 0, 13, 0, 150, 13, 0, 50, 15, 0, 0, 7, 0, 120, 13, 0, 10, 14, 0, 3, 7, 0, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			t.Skip("schedule longer than the harness budget")
		}
		fuzzProgram(newSpec(t, NewEngine()), data)
	})
}
