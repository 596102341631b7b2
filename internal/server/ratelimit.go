package server

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Per-tenant token-bucket rate limiting. The tenant is whatever identity
// the request presents (X-API-Key, or a bearer token); anonymous callers
// share one default bucket, so an unauthenticated stampede cannot starve
// identified tenants. The table is bounded: beyond maxTenants the
// least-recently-seen bucket is evicted, which at worst briefly refreshes
// a dormant tenant's burst — a deliberate trade against unbounded memory.

// anonymousTenant keys the shared bucket for unidentified callers.
const anonymousTenant = "anonymous"

// headerValue is Header.Get for a key already in the canonical form net/http
// stores: Get re-canonicalizes "X-API-Key" on every call, and allocates to.
func headerValue(h http.Header, canonicalKey string) string {
	if v := h[canonicalKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// tenantOf extracts the caller identity from request headers.
func tenantOf(r *http.Request) string {
	if k := headerValue(r.Header, "X-Api-Key"); k != "" {
		return k
	}
	if auth := headerValue(r.Header, "Authorization"); auth != "" {
		if t, ok := strings.CutPrefix(auth, "Bearer "); ok && t != "" {
			return t
		}
	}
	return anonymousTenant
}

type tenantBucket struct {
	tokens   float64
	last     time.Time // last refill
	lastSeen time.Time // eviction recency
}

type tenantLimiter struct {
	mu         sync.Mutex
	rps, burst float64
	maxTenants int
	buckets    map[string]*tenantBucket
	evictions  *obs.Counter // ratelimit_evictions_total, counted where it happens
}

func newTenantLimiter(rps, burst float64, maxTenants int, evictions *obs.Counter) *tenantLimiter {
	return &tenantLimiter{
		rps: rps, burst: burst, maxTenants: maxTenants,
		buckets: make(map[string]*tenantBucket), evictions: evictions,
	}
}

// allow consumes one token from the tenant's bucket, reporting the wait
// until a token exists when it cannot. A non-positive rps disables
// limiting.
func (l *tenantLimiter) allow(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l.rps <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.maxTenants {
			l.evictOldest()
		}
		b = &tenantBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rps
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	b.lastSeen = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rps * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After is whole seconds; never hint 0
	}
	return false, wait
}

// evictOldest drops the least-recently-seen bucket (callers hold l.mu).
func (l *tenantLimiter) evictOldest() {
	var victim string
	var oldest time.Time
	first := true
	for k, b := range l.buckets {
		if first || b.lastSeen.Before(oldest) {
			victim, oldest, first = k, b.lastSeen, false
		}
	}
	if victim != "" {
		delete(l.buckets, victim)
		l.evictions.Inc()
	}
}

// size reports the live bucket count, for the tenants gauge.
func (l *tenantLimiter) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// evicted reports cumulative evictions.
func (l *tenantLimiter) evicted() int64 { return l.evictions.Value() }
