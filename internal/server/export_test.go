package server

// Ready reports whether the server currently passes /readyz.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetReady overrides readiness (Run manages it; tests may force it).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }
