package platform

import "repro/internal/sim"

// closures schedules func() callbacks for the frozen closure control plane
// (burst_closure_test.go): registered as the engine's sink, it carries each
// on a word whose subject indexes the func. It schedules with Emit, which
// stamps seq as the engine stamps any event and never rides a lane, so the
// oracle dispatches in the (at, seq) order it always did, every event on the
// heap.
type closures struct {
	eng *sim.Engine
	fns map[int32]func() // the pending closures, by subject
	ids int32            // subjects issued
}

// newClosures registers a fresh adapter as eng's sink.
func newClosures(eng *sim.Engine) *closures {
	c := &closures{eng: eng, fns: map[int32]func(){}}
	eng.SetSink(c)
	return c
}

// At schedules fn to run at absolute virtual time t.
func (c *closures) At(t float64, fn func()) {
	c.eng.Emit(t, 1, c.ids) // the adapter is the run's only sink: any kind will do
	c.fns[c.ids] = fn
	c.ids++
}

// After schedules fn to run d seconds of virtual time from now, validating d
// as EmitAfter does.
func (c *closures) After(d float64, fn func()) {
	c.At(sim.TimerAt(c.eng.Now(), d), fn)
}

func (c *closures) Dispatch(_ uint8, subject int32) {
	fn := c.fns[subject]
	delete(c.fns, subject)
	fn()
}

// station is the closure station sim.TypedStation replaced, kept for the
// oracle: a multi-server FCFS queue whose jobs carry a service-time function
// evaluated at dispatch and a completion callback. Its completions go
// through the heap alone, so the oracle holds the typed stations' lanes to a
// run without them.
type station struct {
	clo         *closures
	servers     int
	busy        int
	queue       []func() // each starts a waiting job
	Served      int      // jobs whose service completed
	BusySeconds float64  // total service time across all servers
}

func newStation(clo *closures, servers int) *station { return &station{clo: clo, servers: servers} }

func (s *station) Submit(service func() float64, done func(start, end float64)) {
	start := func() {
		s.busy++
		begin := s.clo.eng.Now()
		d := service()
		s.clo.After(d, func() {
			s.busy--
			s.Served++
			s.BusySeconds += d
			done(begin, s.clo.eng.Now())
			if len(s.queue) > 0 {
				next := s.queue[0]
				s.queue[0] = nil
				s.queue = s.queue[1:]
				next()
			}
		})
	}
	if s.busy < s.servers {
		start()
		return
	}
	s.queue = append(s.queue, start)
}
