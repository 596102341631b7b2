package obs

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// expositionLineRE accepts the two line shapes of text format 0.0.4 we emit:
// `# TYPE name type` comments and `name{labels} value` samples.
var (
	typeLineRE   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? \S+$`)
)

// validateExposition parses every line against the exposition grammar and
// returns the sample lines keyed by series id. Shared with the e2e test's
// expectations in spirit: any line that is neither a TYPE comment nor a
// well-formed sample fails the test.
func validateExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !typeLineRE.MatchString(line) {
				t.Errorf("bad comment line: %q", line)
			}
			continue
		}
		if !sampleLineRE.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		id, val := line[:sp], line[sp+1:]
		if _, ok := samples[id]; ok {
			t.Errorf("duplicate series %q", id)
		}
		samples[id] = val
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Errorf("unparseable value %q in line %q", val, line)
			}
		}
	}
	return samples
}

func TestWritePrometheusScalars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bursts_total").Add(7)
	reg.Gauge("inflight").Set(2.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateExposition(t, sb.String())
	if samples["bursts_total"] != "7" {
		t.Errorf("bursts_total = %q, want 7", samples["bursts_total"])
	}
	if samples["inflight"] != "2.5" {
		t.Errorf("inflight = %q, want 2.5", samples["inflight"])
	}
	if !strings.Contains(sb.String(), "# TYPE bursts_total counter") {
		t.Error("missing TYPE line for bursts_total")
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateExposition(t, sb.String())

	// Buckets must be cumulative and the +Inf bucket must equal _count.
	want := map[string]string{
		`lat_seconds_bucket{le="0.1"}`:  "1",
		`lat_seconds_bucket{le="1"}`:    "3",
		`lat_seconds_bucket{le="10"}`:   "4",
		`lat_seconds_bucket{le="+Inf"}`: "5",
		`lat_seconds_count`:             "5",
		`lat_seconds_sum`:               "56.05",
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %q, want %q", k, samples[k], v)
		}
	}
	if !strings.Contains(sb.String(), "# TYPE lat_seconds histogram") {
		t.Error("missing histogram TYPE line")
	}
}

func TestWritePrometheusVectors(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("req_total", "route", "code").With("advise", "200").Add(4)
	reg.CounterVec("req_total", "route", "code").With("plan", "500").Inc()
	reg.HistogramVec("req_seconds", []string{"route"}, []float64{1}).With("advise").Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateExposition(t, sb.String())
	if samples[`req_total{route="advise",code="200"}`] != "4" {
		t.Errorf("labeled counter missing/wrong: %v", samples)
	}
	if samples[`req_seconds_bucket{route="advise",le="1"}`] != "1" {
		t.Error("vec histogram bucket missing series labels before le")
	}
	if samples[`req_seconds_count{route="advise"}`] != "1" {
		t.Error("vec histogram _count missing")
	}
}

func TestWritePrometheusSanitization(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_start-retry").Inc() // hyphen → underscore
	reg.CounterVec("weird", "label-name").With("quote\" slash\\ nl\n").Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples := validateExposition(t, out)
	if _, ok := samples["events_start_retry"]; !ok {
		t.Errorf("hyphenated metric not sanitized: %v", samples)
	}
	if _, ok := samples[`weird{label_name="quote\" slash\\ nl\n"}`]; !ok {
		t.Errorf("label escaping wrong: %q", out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total").Inc()
	reg.Counter("a_total").Inc()
	reg.GaugeVec("g", "k").With("b").Set(1)
	reg.GaugeVec("g", "k").With("a").Set(2)

	var a, b strings.Builder
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two encodes of the same registry differ")
	}
	if strings.Index(a.String(), "a_total") > strings.Index(a.String(), "z_total") {
		t.Error("families not sorted by name")
	}
	if strings.Index(a.String(), `g{k="a"}`) > strings.Index(a.String(), `g{k="b"}`) {
		t.Error("series not sorted within family")
	}
}

var update = flag.Bool("update", false, "rewrite the exposition golden")

// fixtureRegistry holds one of every shape the encoder renders: unlabeled
// counter, gauge and histograms (custom, default and empty bounds), labeled
// vectors of each kind, an escaped label value and a hyphenated name.
func fixtureRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("bursts_total").Add(7)
	reg.Gauge("inflight").Set(2.5)
	h := reg.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	reg.Histogram("default_seconds", nil).Observe(0.3)
	reg.Histogram("empty_seconds", nil)
	reg.Counter("events_start-retry").Inc()
	cv := reg.CounterVec("req_total", "route", "code")
	cv.With("plan", "500").Inc()
	cv.With("advise", "200").Add(4)
	gv := reg.GaugeVec("g", "k")
	gv.With("b").Set(1)
	gv.With("a").Set(-0.125)
	reg.HistogramVec("req_seconds", []string{"route"}, []float64{1}).With("advise").Observe(0.5)
	reg.CounterVec("weird", "label-name").With("quote\" slash\\ nl\n").Inc()
	return reg
}

// TestWritePrometheusGolden pins the exposition byte for byte.
func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := fixtureRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, sb.String())
	golden := filepath.Join("testdata", "prometheus_fixture.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("exposition drifted from %s:\ngot:\n%s\nwant:\n%s", golden, sb.String(), want)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		42:          "42",
		-3:          "-3",
		2.5:         "2.5",
		0.001:       "0.001",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.Inf(-1)); got != "-Inf" {
		t.Errorf("-Inf = %q", got)
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
}

func TestMetricsHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bursts_total").Inc()
	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE bursts_total counter") {
		t.Errorf("body not Prometheus: %q", rec.Body.String())
	}
}

func TestCollectorRunsAtScrape(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.RegisterCollector(func(r *Registry) {
		calls++
		r.Gauge("derived").Set(float64(calls))
	})
	for want := 1; want <= 2; want++ {
		var sb strings.Builder
		_ = reg.WritePrometheus(&sb)
		if calls != want || !strings.Contains(sb.String(), fmt.Sprintf("derived %d", want)) {
			t.Errorf("collector not run at encode %d: calls=%d body=%q", want, calls, sb.String())
		}
	}
}

// TestCollectorMayRegister checks that a collector registering another
// collector does not deadlock the scrape that runs it.
func TestCollectorMayRegister(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector(func(r *Registry) {
		r.RegisterCollector(func(r *Registry) { r.Counter("late_total").Inc() })
	})
	_ = reg.WritePrometheus(io.Discard)
	_ = reg.WritePrometheus(io.Discard)
	if got := reg.Counter("late_total").Value(); got != 1 {
		t.Errorf("late_total = %d, want 1 (the late collector runs from the second scrape on)", got)
	}
}

func TestGoRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector(GoRuntimeCollector())
	runtime.GC()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("go_goroutines").Value(); got < 1 {
		t.Errorf("go_goroutines = %v", got)
	}
	if got := reg.Gauge("go_heap_alloc_bytes").Value(); got <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v", got)
	}
	if got := reg.Gauge("go_gomaxprocs").Value(); got < 1 {
		t.Errorf("go_gomaxprocs = %v", got)
	}
	// The GC cycle count is a counter mirrored from MemStats.NumGC.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if got := reg.Counter("go_gc_cycles_total").Value(); got < 1 || got > int64(ms.NumGC) {
		t.Errorf("go_gc_cycles_total = %d, want in [1, %d]", got, ms.NumGC)
	}
	if !strings.Contains(sb.String(), "# TYPE go_gc_cycles_total counter\n") {
		t.Error("go_gc_cycles_total is not exposed as a counter")
	}
}

// TestWritePrometheusConcurrent encodes while writers mutate every metric
// kind, for the -race stress job.
func TestWritePrometheusConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector(GoRuntimeCollector())
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("c").Inc()
			reg.Gauge("g").Set(float64(i))
			reg.Histogram("h", nil).Observe(0.01)
			reg.CounterVec("cv", "k").With(fmt.Sprintf("k%d", i%8)).Inc()
		}
	}()
	for i := 0; i < 100; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		validateExposition(t, sb.String())
	}
	close(stop)
	<-done
}
