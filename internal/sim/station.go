package sim

// Station is a multi-server FCFS queue living inside an Engine. Jobs submit
// with a service-time function evaluated at dispatch (so service time can
// depend on system state at the moment the job starts, e.g. a scheduler
// whose placement search slows down as the datacenter fills).
type Station struct {
	eng     *Engine
	servers int
	busy    int
	queue   []*job

	// Served counts jobs whose service completed.
	Served int
	// BusySeconds accumulates total service time across all servers.
	BusySeconds float64
}

type job struct {
	service func() float64
	done    func(start, end float64)
}

// NewStation creates a station with the given number of parallel servers.
// servers must be ≥ 1.
func NewStation(eng *Engine, servers int) *Station {
	if servers < 1 {
		panic("sim: station needs ≥1 server")
	}
	return &Station{eng: eng, servers: servers}
}

// Submit enqueues a job. service is evaluated when the job reaches a free
// server; done (optional) is called at completion with the service start and
// end times.
func (s *Station) Submit(service func() float64, done func(start, end float64)) {
	j := &job{service: service, done: done}
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
}

// QueueLen reports jobs waiting (not in service).
func (s *Station) QueueLen() int { return len(s.queue) }

// Busy reports servers currently serving.
func (s *Station) Busy() int { return s.busy }

func (s *Station) start(j *job) {
	s.busy++
	begin := s.eng.Now()
	d := j.service()
	if d < 0 {
		panic("sim: negative service time")
	}
	s.eng.After(d, func() {
		s.busy--
		s.Served++
		s.BusySeconds += d
		if j.done != nil {
			j.done(begin, s.eng.Now())
		}
		if len(s.queue) > 0 {
			next := s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.start(next)
		}
	})
}

// TypedStation is the closure-free Station variant for the typed event
// path: jobs are identified by a small integer subject, completions are
// announced by emitting the station's registered kind through the engine's
// EventSink, and the wait queue is a cursor-consumed []int32 — so a fully
// loaded million-job station allocates nothing per job in steady state.
// Completions are emitted on a monotone lane the station opens at Init
// (lane.go): while service times do not shrink they are already in dispatch
// order and never enter the heap.
//
// The contract mirrors Station exactly, event for event, so a control plane
// ported from closures to subjects dispatches in the same (at, seq) order:
//
//   - Submit(subject) starts service immediately when a server is free
//     (service evaluated now, completion event scheduled now), else queues
//     FIFO.
//   - When the completion event dispatches, the sink must call
//     Complete(subject) first (counters: busy, Served, BusySeconds), then
//     run its own completion logic, then call Next() to start the next
//     queued job. That is the order the closure Station performed those
//     three steps in, and downstream events are sequence-numbered by it.
//
// The zero value is not ready; call Init (re-Init to reuse pooled storage
// across runs).
type TypedStation struct {
	eng     *Engine
	servers int
	lane    int // the engine lane completions are emitted on
	service func(subject int32) float64

	busy     int
	queue    []int32
	queuePos int
	// pend records the in-flight service duration per subject so Complete
	// can account BusySeconds exactly (recomputing it from timestamps would
	// round differently than the closure path).
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
// cost nothing per run after the first. Init opens the station's lane on eng;
// Engine.Reset closes it, so a pooled station is re-Inited after its engine
// is reset, not before.
func (s *TypedStation) Init(eng *Engine, servers int, kind uint8, subjects int, service func(subject int32) float64) {
	if servers < 1 {
		panic("sim: station needs ≥1 server")
	}
	s.eng = eng
	s.servers = servers
	s.lane = eng.openLane(kind)
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

// QueueLen reports jobs waiting (not in service).
func (s *TypedStation) QueueLen() int { return len(s.queue) - s.queuePos }

// Busy reports servers currently serving.
func (s *TypedStation) Busy() int { return s.busy }

func (s *TypedStation) start(subject int32) {
	s.busy++
	d := s.service(subject)
	if d < 0 {
		panic("sim: negative service time")
	}
	s.pend[subject] = d
	s.eng.emitLaneAfter(s.lane, d, subject)
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
// completion protocol (after Complete and the sink's own logic), matching
// where the closure Station started its next job.
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
