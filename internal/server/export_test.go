package server

// Ready reports whether the server currently passes /readyz.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetReady overrides readiness (Run manages it; tests may force it).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// setMaxTenants shrinks the limiter table's cap, so a test reaches eviction
// without thousands of tenants.
func (s *Server) setMaxTenants(n int) { s.tenants.maxTenants = n }
