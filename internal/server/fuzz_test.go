package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var fuzzRoutes = []string{"advise", "plan", "qos", "joint", "mixed"}

// fuzzServer is shared by every FuzzRouteParams execution in a process: the
// planner pool it warms is what makes an execution cost microseconds.
var fuzzServer = sync.OnceValues(func() (*Server, error) {
	return New(Config{TenantRPS: -1, Seed: 1, MaxInFlight: 64})
})

// nonFiniteToken finds a NaN or Infinity literal outside a JSON string.
var nonFiniteToken = regexp.MustCompile(`(?i)[:\[,]\s*-?(nan|inf)`)

// FuzzRouteParams throws arbitrary query strings at all five /v1 routes.
// Whatever the input: no panic escapes the handler, the status is never 5xx,
// the body is valid JSON with no NaN/Inf in it, a 200 is exactly its oracle
// struct's json.MarshalIndent, and asking twice answers the same bytes.
func FuzzRouteParams(f *testing.F) {
	for route, q := range []string{
		"app=Video&platform=aws&c=2000&ws=0.5",
		"app=Video&platform=aws&c=2000&degree=5",
		"app=Xapian&platform=aws&c=2000&qos=120",
		"app=Video&platform=aws&c=2000&sizes=5120,10240",
		"app=Video:6&app=Sort:4&platform=aws",
	} {
		f.Add(uint8(route), q)
	}
	// The two bugs this target was written after.
	f.Add(uint8(1), "app=Video&platform=aws&c=9223372036854775807&degree=2")
	f.Add(uint8(4), "app=Video:100000&app=Sort:1&platform=aws")
	f.Add(uint8(4), "app=Video:9223372036854775807&app=Sort:9223372036854775807&platform=aws")
	// Numeric spellings strconv accepts and a planner might not.
	f.Add(uint8(0), "app=Video&platform=aws&ws=0x1p-2")
	f.Add(uint8(0), "app=Video&platform=aws&ws=1e-320")
	f.Add(uint8(0), "app=Video&platform=aws&ws=NaN&c=Inf")
	f.Add(uint8(0), "app=Video&platform=aws&c=-5")
	f.Add(uint8(0), "app=Video&platform=aws&c=9223372036854775807")
	f.Add(uint8(2), "app=Video&platform=aws&qos=1e-300")
	f.Add(uint8(2), "app=Video&platform=aws&qos=1e308&c=1")
	f.Add(uint8(3), "app=Video&platform=aws&sizes=1e308,1e308")
	f.Add(uint8(3), "app=Video&platform=aws&sizes=1e-320,5e-324&qos=-0")
	f.Add(uint8(3), "app=Video&platform=aws&sizes=,,&c=1")
	f.Add(uint8(3), "app=Video&platform=Aws&sizes=700") // this target's first find: a 500 for a grid too small to fit Eq. 1
	// The grid bounds: one size too many, and more distinct one-size grids
	// than the pool retains (each evicted and rebuilt grid must answer the
	// same bytes twice, like any other input).
	f.Add(uint8(3), "app=Video&platform=aws&sizes=512,1024,1536,2048,2560,3072,3584,4096,4608,5120,5632,6144,6656,7168,7680,8192,8704")
	for i := 0; i < 200; i++ {
		f.Add(uint8(3), "app=Sort&platform=aws&c=500&sizes="+strconv.Itoa(4096+16*i))
	}
	// Hostile text: NUL in a name, a duplicated key, an oversized key.
	f.Add(uint8(0), "app=Video%00&platform=aws")
	f.Add(uint8(1), "app=Video&app=Sort&platform=aws&platform=funcx&c=1&c=2&degree=1&degree=99")
	f.Add(uint8(2), strings.Repeat("k", 5000)+"=1&app=Video&platform=aws&qos=200")
	f.Add(uint8(4), "app=:&app=Video:&app=:1&platform=%zz&x;y=1")

	f.Fuzz(func(t *testing.T, route uint8, rawQuery string) {
		s, err := fuzzServer()
		if err != nil {
			t.Fatal(err)
		}
		name := fuzzRoutes[int(route)%len(fuzzRoutes)]
		serve := func() *httptest.ResponseRecorder {
			// Built by hand: httptest.NewRequest would reject (panic on) a
			// target a real listener accepts.
			req := &http.Request{Method: "GET", URL: &url.URL{Path: "/v1/" + name, RawQuery: rawQuery}, Header: http.Header{}}
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, req)
			return rr
		}
		rr := serve()
		body := rr.Body.Bytes()
		if rr.Code >= 500 {
			t.Fatalf("%s?%s: status %d: %s", name, rawQuery, rr.Code, body)
		}
		if got := s.reg.Counter("http_panics_total").Value(); got != 0 {
			t.Fatalf("%s?%s: handler panicked (http_panics_total = %d)", name, rawQuery, got)
		}
		if !json.Valid(body) {
			t.Fatalf("%s?%s: status %d with invalid JSON: %q", name, rawQuery, rr.Code, body)
		}
		if rr.Code == http.StatusOK {
			if nonFiniteToken.Match(body) {
				t.Fatalf("%s?%s: non-finite number in body: %s", name, rawQuery, body)
			}
			checkBodyAgainstOracle(t, name+"?"+rawQuery, body, oracleFor(name))
		} else {
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s?%s: status %d without an error body: %s", name, rawQuery, rr.Code, body)
			}
		}
		if again := serve(); again.Code != rr.Code || !bytes.Equal(again.Body.Bytes(), body) {
			t.Fatalf("%s?%s: not deterministic:\n%d %s\nthen\n%d %s", name, rawQuery, rr.Code, body, again.Code, again.Body)
		}
	})
}
