package sim

// closures schedules func() callbacks for tests: registered as the engine's
// sink, it carries each on a word of kind closureKind whose subject indexes
// the func, and hands every other kind to the program's sink. It schedules
// with Emit, which stamps seq as the engine stamps any event, so closures
// take their place in the one (at, seq) order.
type closures struct {
	eng  *Engine
	next EventSink        // the program's sink; nil when it emits no words of its own
	fns  map[int32]func() // the pending closures, by subject
	ids  int32            // subjects issued
}

const closureKind uint8 = 255 // the programs' own kinds stay below it

// newClosures registers a fresh adapter as eng's sink.
func newClosures(eng *Engine) *closures {
	c := &closures{eng: eng, fns: map[int32]func(){}}
	eng.SetSink(c)
	return c
}

// SetSink registers the program's sink for every kind but closureKind.
func (c *closures) SetSink(s EventSink) { c.next = s }

// At schedules fn to run at absolute virtual time t.
func (c *closures) At(t float64, fn func()) {
	c.eng.Emit(t, closureKind, c.ids)
	c.fns[c.ids] = fn
	c.ids++
}

// After schedules fn to run d seconds of virtual time from now, validating d
// as EmitAfter does.
func (c *closures) After(d float64, fn func()) {
	checkAfter(d)
	c.At(c.eng.Now()+d, fn)
}

func (c *closures) Dispatch(kind uint8, subject int32) {
	if kind != closureKind {
		c.next.Dispatch(kind, subject)
		return
	}
	fn := c.fns[subject]
	delete(c.fns, subject)
	fn()
}

// station is the closure station TypedStation replaced, the reference
// TestEngineDifferentialTypedStations holds TypedStation to: a multi-server
// FCFS queue whose jobs carry a service-time function evaluated at dispatch
// and a completion callback.
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
