package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The tagged structs below defined the /v1 wire format through encoding/json
// until the hit path stopped reflecting; they stay as its oracle. A body the
// daemon appends must decode into its struct with no member left over and
// re-encode, through json.MarshalIndent, to the very same bytes — which pins
// member names, order, indentation, omitempty, null vs [], and the float
// format (shortest round-trip digits re-render identically or not at all).

type planJSON struct {
	Degree              int     `json:"degree"`
	Instances           int     `json:"instances"`
	PredictedServiceSec float64 `json:"predicted_service_sec"`
	PredictedExpenseUSD float64 `json:"predicted_expense_usd"`
	BaselineServiceSec  float64 `json:"baseline_service_sec"`
	BaselineExpenseUSD  float64 `json:"baseline_expense_usd"`
}

type adviseResponse struct {
	App              string   `json:"app"`
	Platform         string   `json:"platform"`
	C                int      `json:"c"`
	WService         float64  `json:"w_service"`
	WExpense         float64  `json:"w_expense"`
	MaxDegree        int      `json:"max_degree"`
	Plan             planJSON `json:"plan"`
	DegreeLo         int      `json:"degree_lo"`
	DegreeHi         int      `json:"degree_hi"`
	ModelOverheadUSD float64  `json:"model_overhead_usd"`
}

type qosResponse struct {
	App          string   `json:"app"`
	Platform     string   `json:"platform"`
	C            int      `json:"c"`
	QoSSec       float64  `json:"qos_sec"`
	TailQuantile float64  `json:"tail_quantile"`
	WService     float64  `json:"w_service"`
	WExpense     float64  `json:"w_expense"`
	Plan         planJSON `json:"plan"`
}

type jointResponse struct {
	App              string    `json:"app"`
	Platform         string    `json:"platform"`
	C                int       `json:"c"`
	WService         float64   `json:"w_service"`
	WExpense         float64   `json:"w_expense"`
	QoSSec           float64   `json:"qos_sec,omitempty"`
	TailQuantile     float64   `json:"tail_quantile,omitempty"`
	SizesMB          []float64 `json:"sizes_mb"`
	MemMB            float64   `json:"mem_mb"`
	MaxDegree        int       `json:"max_degree"`
	Plan             planJSON  `json:"plan"`
	ModelOverheadUSD float64   `json:"model_overhead_usd"`
}

type planAtResponse struct {
	App           string  `json:"app"`
	Platform      string  `json:"platform"`
	C             int     `json:"c"`
	Degree        int     `json:"degree"`
	MaxDegree     int     `json:"max_degree"`
	Instances     int     `json:"instances"`
	ETSec         float64 `json:"et_sec"`
	ServiceSec    float64 `json:"service_sec"`
	P95ServiceSec float64 `json:"p95_service_sec"`
	ExpenseUSD    float64 `json:"expense_usd"`
}

type mixedAppJSON struct {
	App   string `json:"app"`
	Count int    `json:"count"`
}

type mixedBinJSON struct {
	Counts []int `json:"counts"`
	N      int   `json:"n"`
}

type mixedResponse struct {
	Platform            string         `json:"platform"`
	Apps                []mixedAppJSON `json:"apps"`
	WService            float64        `json:"w_service"`
	WExpense            float64        `json:"w_expense"`
	Strategy            string         `json:"strategy"`
	Instances           int            `json:"instances"`
	PredictedServiceSec float64        `json:"predicted_service_sec"`
	PredictedExpenseUSD float64        `json:"predicted_expense_usd"`
	Bins                []mixedBinJSON `json:"bins"`
	ModelOverheadUSD    float64        `json:"model_overhead_usd"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// oracleFor returns an empty oracle struct for a /v1 route's 200 body.
func oracleFor(route string) any {
	switch route {
	case "advise":
		return new(adviseResponse)
	case "plan":
		return new(planAtResponse)
	case "qos":
		return new(qosResponse)
	case "joint":
		return new(jointResponse)
	case "mixed":
		return new(mixedResponse)
	}
	panic("no oracle for route " + route)
}

// marshalIndent is what writeJSON used to send for v.
func marshalIndent(t testing.TB, v any) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	return append(buf, '\n')
}

// checkBodyAgainstOracle holds body to the round trip through dst.
func checkBodyAgainstOracle(t testing.TB, what string, body []byte, dst any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("%s: body does not decode into %T: %v\n%s", what, dst, err, body)
	}
	if want := marshalIndent(t, dst); !bytes.Equal(body, want) {
		t.Fatalf("%s: body is not json.MarshalIndent of its %T:\ngot:\n%s\nwant:\n%s", what, dst, body, want)
	}
}

func TestAppendJSONMatchesMarshalIndent(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct{ route, query string }{
		{"advise", "app=Video&platform=aws&c=2000&ws=0.5"},
		{"advise", "app=Sort&platform=funcx&c=137&ws=0.123456789"},
		{"plan", "app=Video&platform=aws&c=2000&degree=5"},
		{"plan", "app=Xapian&platform=google&c=9223372036854775807&degree=3"},
		{"qos", "app=Xapian&platform=aws&c=2000&qos=120"},
		{"joint", "app=Video&platform=aws&c=2000&ws=0.5&sizes=5120,10240"},
		{"joint", "app=Video&platform=azure&c=700"},
		{"joint", "app=Xapian&platform=aws&c=2000&qos=120"}, // carries qos_sec and tail_quantile
		{"mixed", "app=Video:60&app=Smith-Waterman:60&platform=aws&ws=0.5"},
		{"mixed", "app=Video:7&app=Sort:3&app=Xapian:11&platform=google&ws=0.9"},
	} {
		req := httptest.NewRequest("GET", "/v1/"+tc.route+"?"+tc.query, nil)
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s?%s: status %d: %s", tc.route, tc.query, rr.Code, rr.Body)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type %q", tc.route, ct)
		}
		checkBodyAgainstOracle(t, tc.route+"?"+tc.query, rr.Body.Bytes(), oracleFor(tc.route))
	}
}

// docOracle exercises every encoder primitive and every nesting the bodies
// use: members after containers, arrays of objects holding arrays, omitted
// members, nil vs empty vs filled slices.
type docOracle struct {
	S     string         `json:"s"`
	I     int            `json:"i"`
	F     float64        `json:"f"`
	Opt   float64        `json:"opt,omitempty"`
	Fs    []float64      `json:"fs"`
	Plan  planJSON       `json:"plan"`
	Apps  []mixedAppJSON `json:"apps"`
	Bins  []mixedBinJSON `json:"bins"`
	Empty struct{}       `json:"empty"`
	Last  float64        `json:"last"`
}

func (d *docOracle) appendJSON(e *jsonEnc) {
	e.open("", '{')
	e.str("s", d.S)
	e.int("i", d.I)
	e.float("f", d.F)
	if d.Opt != 0 {
		e.float("opt", d.Opt)
	}
	e.floats("fs", d.Fs)
	e.open("plan", '{')
	e.int("degree", d.Plan.Degree)
	e.int("instances", d.Plan.Instances)
	e.float("predicted_service_sec", d.Plan.PredictedServiceSec)
	e.float("predicted_expense_usd", d.Plan.PredictedExpenseUSD)
	e.float("baseline_service_sec", d.Plan.BaselineServiceSec)
	e.float("baseline_expense_usd", d.Plan.BaselineExpenseUSD)
	e.end('}')
	if d.Apps == nil {
		e.null("apps")
	} else {
		e.open("apps", '[')
		for _, a := range d.Apps {
			e.open("", '{')
			e.str("app", a.App)
			e.int("count", a.Count)
			e.end('}')
		}
		e.end(']')
	}
	if d.Bins == nil {
		e.null("bins")
	} else {
		e.open("bins", '[')
		for _, b := range d.Bins {
			e.open("", '{')
			if b.Counts == nil {
				e.null("counts")
			} else {
				e.open("counts", '[')
				for _, c := range b.Counts {
					e.int("", c)
				}
				e.end(']')
			}
			e.int("n", b.N)
			e.end('}')
		}
		e.end(']')
	}
	e.open("empty", '{')
	e.end('}')
	e.float("last", d.Last)
	e.end('}')
}

// sliceOf maps a fuzzed selector onto nil, empty, or n copies of v.
func sliceOf[T any](sel uint8, v T) []T {
	switch sel % 4 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	out := make([]T, sel%4+sel/64)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkDoc holds the encoder to json.MarshalIndent on one document, and the
// error body to the map[string]string writeAPIError used to marshal.
func checkDoc(t testing.TB, f, g float64, str string, sel uint8) {
	t.Helper()
	d := &docOracle{
		S: str, I: int(math.Float64bits(f) >> 7), F: f, Opt: g, Last: g,
		Fs:   sliceOf(sel, f),
		Plan: planJSON{Degree: int(sel), Instances: -int(sel), PredictedServiceSec: g, PredictedExpenseUSD: f, BaselineServiceSec: -f, BaselineExpenseUSD: f / 3},
		Apps: sliceOf(sel>>2, mixedAppJSON{App: str, Count: int(sel)}),
		Bins: sliceOf(sel>>4, mixedBinJSON{Counts: sliceOf(sel>>1, int(sel)), N: 3}),
	}
	var e jsonEnc
	d.appendJSON(&e)
	rr := httptest.NewRecorder()
	e.writeTo(rr, http.StatusOK)

	want, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		// NaN or ±Inf: the daemon answers as writeJSON answers a failed Marshal.
		ref := httptest.NewRecorder()
		writeJSON(ref, http.StatusOK, d)
		if !e.bad || rr.Code != ref.Code || rr.Body.String() != ref.Body.String() ||
			rr.Header().Get("Content-Type") != ref.Header().Get("Content-Type") {
			t.Fatalf("unsupported value (%v): got %d %q (bad=%v), want %d %q", err, rr.Code, rr.Body, e.bad, ref.Code, ref.Body)
		}
		if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "response encoding failed") {
			t.Fatalf("unsupported value answered %d %q", rr.Code, rr.Body)
		}
	} else if got := rr.Body.Bytes(); e.bad || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("f=%v g=%v s=%q sel=%d:\ngot:\n%s\nwant:\n%s", f, g, str, sel, got, want)
	}

	rr = httptest.NewRecorder()
	writeAPIError(rr, &apiError{status: http.StatusBadRequest, msg: str})
	if want := marshalIndent(t, map[string]string{"error": str}); rr.Code != http.StatusBadRequest || !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("error body for %q:\ngot:\n%s\nwant:\n%s", str, rr.Body, want)
	}
}

var (
	jsonFloatCases = []float64{
		0, math.Copysign(0, -1), 1, -1, 2000, 0.5, 1.0 / 3, 123456789.125,
		5e-324, 2.2250738585072014e-308, 1e-7, 9.999999e-7, 1e-6, 1.5e-6, 1e-9, 1e-10,
		1e20, 9.99999999999999e20, 1e21, 1.5e21, 1e100, math.MaxFloat64, -1e-7, -1e21,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	jsonStringCases = []string{
		"", "Video", "AWS Lambda", "a<b>&c", `say "hi" \ back`, "tab\there", "nul\x00ctl\x1f", "del\x7f",
		"bad\xffutf8\xc3", "line\u2028sep\u2029", "héllo wörld ✓", "emoji 🎬", strings.Repeat("x", 300),
	}
)

func TestAppendJSONPrimitives(t *testing.T) {
	for i, f := range jsonFloatCases {
		for j, s := range jsonStringCases {
			checkDoc(t, f, jsonFloatCases[(i+j+1)%len(jsonFloatCases)], s, uint8(7*i+13*j))
		}
	}
}

func FuzzAppendJSON(f *testing.F) {
	for i, v := range jsonFloatCases {
		f.Add(math.Float64bits(v), math.Float64bits(jsonFloatCases[(i+5)%len(jsonFloatCases)]), jsonStringCases[i%len(jsonStringCases)], uint8(37*i))
	}
	f.Fuzz(func(t *testing.T, fbits, gbits uint64, s string, sel uint8) {
		checkDoc(t, math.Float64frombits(fbits), math.Float64frombits(gbits), s, sel)
	})
}
