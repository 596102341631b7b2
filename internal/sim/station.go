package sim

// TypedStation is a multi-server FCFS queue living inside an Engine. Jobs are
// identified by a small integer subject; service time is evaluated per
// subject when the job reaches a server (so it can depend on system state at
// that moment, e.g. a scheduler whose placement search slows down as the
// datacenter fills); completions are announced by emitting the station's
// registered kind through the engine's EventSink. The wait queue is a
// cursor-consumed []int32, so a fully loaded million-job station allocates
// nothing per job in steady state.
//
// The protocol:
//
//   - Submit(subject) starts service immediately when a server is free
//     (service evaluated now, completion event scheduled now), else queues
//     FIFO.
//   - When the completion event dispatches, the sink must call
//     Complete(subject) first (counters: busy, Served, BusySeconds), then
//     run its own completion logic, then call Next() to start the next
//     queued job. Downstream events are sequence-numbered by that order.
//
// The zero value is not ready; call Init (re-Init to reuse pooled storage
// across runs).
type TypedStation struct {
	eng     *Engine
	servers int
	kind    uint8 // the event kind completions are emitted as
	service func(subject int32) float64

	busy     int
	queue    []int32
	queuePos int
	// pend records the in-flight service duration per subject so Complete
	// can account BusySeconds exactly (recomputing it from timestamps would
	// round differently than adding the duration drawn).
	pend []float64

	// Served counts jobs whose service completed.
	Served int
	// BusySeconds accumulates total service time across all servers.
	BusySeconds float64
}

// Init readies the station for a run: servers parallel servers, completions
// emitted as kind through eng's sink, service evaluated per subject at the
// moment the job reaches a server. Subjects must lie in [0, subjects).
// Grown queue and pend storage is retained across Inits, so pooled stations
// cost nothing per run after the first.
func (s *TypedStation) Init(eng *Engine, servers int, kind uint8, subjects int, service func(subject int32) float64) {
	if servers < 1 {
		panic("sim: station needs ≥1 server")
	}
	s.eng = eng
	s.servers = servers
	s.kind = kind
	s.service = service
	s.busy = 0
	s.queue = s.queue[:0]
	s.queuePos = 0
	if cap(s.pend) < subjects {
		s.pend = make([]float64, subjects)
	}
	s.pend = s.pend[:subjects]
	s.Served = 0
	s.BusySeconds = 0
}

// Submit enqueues subject's job, starting service immediately if a server
// is free.
func (s *TypedStation) Submit(subject int32) {
	if s.busy < s.servers {
		s.start(subject)
		return
	}
	s.queue = append(s.queue, subject)
}

func (s *TypedStation) start(subject int32) {
	s.busy++
	d := s.service(subject)
	if d < 0 {
		panic("sim: negative service time")
	}
	s.pend[subject] = d
	s.eng.EmitAfter(d, s.kind, subject)
}

// Complete records the completion of subject's service. The sink calls it
// first thing when the station's kind dispatches, runs its completion
// logic, then calls Next.
func (s *TypedStation) Complete(subject int32) {
	s.busy--
	s.Served++
	s.BusySeconds += s.pend[subject]
}

// Next starts the next queued job, if any. It is the third step of the
// completion protocol, after Complete and the sink's own logic.
func (s *TypedStation) Next() {
	if s.queuePos == len(s.queue) {
		s.queue = s.queue[:0]
		s.queuePos = 0
		return
	}
	next := s.queue[s.queuePos]
	s.queuePos++
	// Compact the consumed prefix so a long-lived station cannot grow its
	// queue without bound across refill cycles.
	if s.queuePos >= 1024 && 2*s.queuePos >= len(s.queue) {
		m := copy(s.queue, s.queue[s.queuePos:])
		s.queue = s.queue[:m]
		s.queuePos = 0
	}
	s.start(next)
}
