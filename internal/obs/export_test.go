package obs

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { h.mu.Lock(); defer h.mu.Unlock(); return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { h.mu.Lock(); defer h.mu.Unlock(); return h.sum }

// Objectives returns the tracker's targets.
func (s *SLO) Objectives() SLOObjectives { return s.obj }

// Record tallies one request outcome: ok is the availability verdict (false
// for server-side failure), durSec the request latency. Latency attainment
// only judges successful requests — a fast 500 is not "good".
func (s *SLO) Record(ok bool, durSec float64) {
	if s == nil {
		return
	}
	s.RecordAt(s.clock(), ok, durSec)
}

// Len reports the number of recorded calls.
func (t *Tape) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}
