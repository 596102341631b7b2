package obs

import "sync"

// tapeOp is one recorded Recorder call.
type tapeOp struct {
	kind  uint8 // 0 BeginBurst, 1 Span, 2 Event
	burst BurstInfo
	span  Span
	event Event
}

// Tape is a Recorder that captures the exact call sequence — BeginBurst,
// Span, and Event interleavings included — for later replay into another
// Recorder. It is the fan-in buffer of the parallel sweep engine: each
// parallel task records into its own Tape, and the coordinator replays the
// tapes in task order once the fan-out completes. Downstream recorders
// therefore see byte-for-byte the call sequence a sequential run would
// have produced, which keeps even streaming exporters (JSONL) and
// burst-scoped ones (Memory) deterministic under any worker count.
//
// The zero value is ready to use. Like every Recorder, a Tape is safe for
// concurrent use, though in the parallel engine each task owns its tape
// exclusively.
type Tape struct {
	mu  sync.Mutex
	ops []tapeOp
}

// BeginBurst implements Recorder.
func (t *Tape) BeginBurst(b BurstInfo) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: 0, burst: b})
	t.mu.Unlock()
}

// Span implements Recorder.
func (t *Tape) Span(s Span) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: 1, span: s})
	t.mu.Unlock()
}

// Event implements Recorder.
func (t *Tape) Event(e Event) {
	t.mu.Lock()
	t.ops = append(t.ops, tapeOp{kind: 2, event: e})
	t.mu.Unlock()
}

// Replay forwards every recorded call to rec in capture order. A nil
// receiver or a nil rec is a no-op, so callers can replay unconditionally.
func (t *Tape) Replay(rec Recorder) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	for _, op := range ops {
		switch op.kind {
		case 0:
			rec.BeginBurst(op.burst)
		case 1:
			rec.Span(op.span)
		case 2:
			rec.Event(op.event)
		}
	}
}
