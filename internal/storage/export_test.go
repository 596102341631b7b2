package storage

// Ops reports the accumulated operation counts (puts, gets).
func (m *Meter) Ops() (puts, gets int) { return m.puts, m.gets }

// EgressGB reports total gigabytes read out of the store.
func (m *Meter) EgressGB() float64 { return m.bytesOut / 1e9 }

// List returns the number of stored objects.
func (s *Store) List() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}
