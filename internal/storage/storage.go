// Package storage models the remote object store (AWS S3 in the paper's
// setup) that serverless functions use for inputs, shuffle data, and
// results. It provides both a functional in-memory store for the examples
// and a cost/latency meter for the datacenter simulator: per-request fees,
// per-GB egress fees (charged by Google and Azure but not AWS — the effect
// behind paper Fig. 21), and bandwidth-limited transfer times.
package storage

import (
	"fmt"
	"sync"
)

// Pricing describes how the store and the platform's network charge.
type Pricing struct {
	// PutRequestUSD and GetRequestUSD are per-operation fees (S3-style).
	PutRequestUSD float64
	GetRequestUSD float64
	// EgressPerGBUSD is the network fee per GB transferred out of the
	// store to function instances; 0 on AWS Lambda, non-zero on Google and
	// Azure in the paper's accounting.
	EgressPerGBUSD float64
}

// Meter accumulates storage traffic and converts it to dollars and transfer
// seconds. The zero value meters with free pricing and infinite bandwidth;
// use NewMeter for a configured one. Meter is not safe for concurrent use —
// each simulated run owns one.
type Meter struct {
	pricing  Pricing
	gbps     float64 // transfer bandwidth per instance, GB/s
	puts     int
	gets     int
	bytesIn  float64 // bytes written to the store
	bytesOut float64 // bytes read from the store (egress)
}

// NewMeter builds a meter with the given pricing and per-instance transfer
// bandwidth in gigabytes per second (must be positive).
func NewMeter(p Pricing, gbps float64) (*Meter, error) {
	if gbps <= 0 {
		return nil, fmt.Errorf("storage: non-positive bandwidth %g GB/s", gbps)
	}
	return &Meter{pricing: p, gbps: gbps}, nil
}

// RecordPut accounts for writing mb megabytes to the store and returns the
// transfer time in seconds.
func (m *Meter) RecordPut(mb float64) float64 {
	if mb < 0 {
		panic("storage: negative put size")
	}
	m.puts++
	m.bytesIn += mb * 1e6
	return m.transferSeconds(mb)
}

// RecordGet accounts for reading mb megabytes from the store and returns
// the transfer time in seconds.
func (m *Meter) RecordGet(mb float64) float64 {
	if mb < 0 {
		panic("storage: negative get size")
	}
	m.gets++
	m.bytesOut += mb * 1e6
	return m.transferSeconds(mb)
}

func (m *Meter) transferSeconds(mb float64) float64 {
	if m.gbps <= 0 {
		return 0
	}
	return mb / 1000 / m.gbps
}

// CostUSD returns the accumulated storage + egress bill.
func (m *Meter) CostUSD() float64 {
	return float64(m.puts)*m.pricing.PutRequestUSD +
		float64(m.gets)*m.pricing.GetRequestUSD +
		m.bytesOut/1e9*m.pricing.EgressPerGBUSD
}

// Store is a minimal in-memory object store with S3 semantics (whole-object
// put/get, last-writer-wins) used by the runnable examples. It is safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string][]byte)}
}

// Put stores a copy of data under key.
func (s *Store) Put(key string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.objects[key] = cp
	s.mu.Unlock()
}

// Get returns a copy of the object at key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: no such key %q", key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete removes key if present.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
}
