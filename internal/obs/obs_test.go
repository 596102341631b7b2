package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestStageAndKindNames(t *testing.T) {
	if got := StageSched.String(); got != "sched" {
		t.Fatalf("StageSched = %q", got)
	}
	if got := StageHedge.String(); got != "hedge" {
		t.Fatalf("StageHedge = %q", got)
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Fatalf("out-of-range stage = %q", got)
	}
	if got := EventHedgeWaste.String(); got != "hedge-waste" {
		t.Fatalf("EventHedgeWaste = %q", got)
	}
	if got := EventKind(200).String(); got != "unknown" {
		t.Fatalf("out-of-range kind = %q", got)
	}
	if n := len(Stages()); n != numStages {
		t.Fatalf("Stages() has %d entries, want %d", n, numStages)
	}
}

func TestMemoryRecorderGroupsByBurst(t *testing.T) {
	var m Memory
	m.BeginBurst(BurstInfo{Platform: "a", Instances: 2})
	m.Span(Span{Instance: 0, Stage: StageExec, StartSec: 1, EndSec: 3})
	m.Event(Event{Instance: 1, Kind: EventCrash, AtSec: 2, DurSec: 1})
	m.BeginBurst(BurstInfo{Platform: "b", Instances: 1})
	m.Span(Span{Instance: 0, Stage: StageSched, StartSec: 0, EndSec: 0.5})

	bursts := m.Bursts()
	if len(bursts) != 2 {
		t.Fatalf("got %d bursts, want 2", len(bursts))
	}
	if bursts[0].Info.Platform != "a" || len(bursts[0].Spans) != 1 || len(bursts[0].Events) != 1 {
		t.Fatalf("burst 0 wrong: %+v", bursts[0])
	}
	if bursts[1].Info.Platform != "b" || len(bursts[1].Spans) != 1 || len(bursts[1].Events) != 0 {
		t.Fatalf("burst 1 wrong: %+v", bursts[1])
	}
	if got := bursts[0].Spans[0].DurSec(); got != 2 {
		t.Fatalf("span duration %g, want 2", got)
	}
}

func TestMemoryRecorderConcurrent(t *testing.T) {
	var m Memory
	m.BeginBurst(BurstInfo{Platform: "x", Instances: 100})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Span(Span{Instance: i, Stage: StageExec, StartSec: 0, EndSec: 1})
			m.Event(Event{Instance: i, Kind: EventStartRetry, AtSec: 0.5})
		}(i)
	}
	wg.Wait()
	b := m.Bursts()
	if len(b[0].Spans) != 100 || len(b[0].Events) != 100 {
		t.Fatalf("lost records: %d spans, %d events", len(b[0].Spans), len(b[0].Events))
	}
}

func TestMultiFansOutAndDropsNils(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	var a, b Memory
	if got := Multi(nil, &a); got != &a {
		t.Fatal("single recorder should be returned unwrapped")
	}
	rec := Multi(&a, nil, &b)
	rec.BeginBurst(BurstInfo{Platform: "p"})
	rec.Span(Span{Stage: StageBoot, EndSec: 1})
	rec.Event(Event{Kind: EventTimeout, AtSec: 1})
	for name, m := range map[string]*Memory{"a": &a, "b": &b} {
		bs := m.Bursts()
		if len(bs) != 1 || len(bs[0].Spans) != 1 || len(bs[0].Events) != 1 {
			t.Fatalf("recorder %s missed records: %+v", name, bs)
		}
	}
}

func TestJSONLOutput(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.BeginBurst(BurstInfo{Platform: "AWS Lambda", Label: "demo", Functions: 10, Degree: 2, Instances: 5})
	j.Span(Span{Instance: 0, Stage: StageSched, StartSec: 0, EndSec: 0.25})
	j.Event(Event{Instance: 3, Kind: EventCrash, AtSec: 1.5, DurSec: 0.5})
	j.BeginBurst(BurstInfo{Platform: "AWS Lambda", Functions: 10, Degree: 5, Instances: 2})
	j.Span(Span{Instance: 1, Stage: StageExec, StartSec: 1, EndSec: 2})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	var types []string
	var bursts []float64
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		types = append(types, rec["type"].(string))
		if b, ok := rec["burst"]; ok {
			bursts = append(bursts, b.(float64))
		}
	}
	if want := []string{"burst", "span", "event", "burst", "span"}; fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("line types %v, want %v", types, want)
	}
	if want := []float64{0, 0, 1}; fmt.Sprint(bursts) != fmt.Sprint(want) {
		t.Fatalf("burst indices %v, want %v", bursts, want)
	}
	if !strings.Contains(sb.String(), `"stage":"sched"`) || !strings.Contains(sb.String(), `"kind":"crash"`) {
		t.Fatalf("missing stage/kind names:\n%s", sb.String())
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("crashes_total")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if reg.Counter("crashes_total") != c {
		t.Fatal("counter handle not stable")
	}

	g := reg.Gauge("last_burst_instances")
	g.Set(42.5)
	if got := g.Value(); got != 42.5 {
		t.Fatalf("gauge = %g", got)
	}

	h := reg.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 555.5 {
		t.Fatalf("histogram stats wrong: n=%d sum=%g", h.Count(), h.Sum())
	}
	if reg.Histogram("lat", nil) != h {
		t.Fatal("histogram handle not stable")
	}
}

// TestRegistryOneKindPerName checks that a name keeps the kind and label
// count it was created with: a second `# TYPE` line for one name would make
// the exposition invalid, so the registry refuses to build one.
func TestRegistryOneKindPerName(t *testing.T) {
	for name, second := range map[string]func(*Registry){
		"gauge":             func(r *Registry) { r.Gauge("x") },
		"histogram":         func(r *Registry) { r.Histogram("x", nil) },
		"one-label counter": func(r *Registry) { r.CounterVec("x", "l") },
		"one-label gauge":   func(r *Registry) { r.GaugeVec("x", "l") },
	} {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry()
			reg.Counter("x")
			defer func() {
				if recover() == nil {
					t.Fatalf("x re-registered as a %s without a panic", name)
				}
			}()
			second(reg)
		})
	}
}

func TestRegistryRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := RegistryRecorder{Reg: reg}
	rec.BeginBurst(BurstInfo{Platform: "p", Functions: 20, Degree: 4, Instances: 5})
	rec.Span(Span{Stage: StageExec, StartSec: 0, EndSec: 2})
	rec.Span(Span{Stage: StageExec, StartSec: 0, EndSec: 4})
	rec.Event(Event{Kind: EventCrash, DurSec: 1.5})
	rec.Event(Event{Kind: EventBackoff, DurSec: 0.5})

	if got := reg.Counter("bursts_total").Value(); got != 1 {
		t.Fatalf("bursts_total = %d", got)
	}
	if got := reg.Counter("instances_total").Value(); got != 5 {
		t.Fatalf("instances_total = %d", got)
	}
	if got := reg.HistogramVec("stage_seconds", []string{"stage"}, nil).With("exec").Count(); got != 2 {
		t.Fatalf(`stage_seconds{stage="exec"} count = %d`, got)
	}
	if got := reg.CounterVec("events_total", "kind").With("crash").Value(); got != 1 {
		t.Fatalf(`events_total{kind="crash"} = %d`, got)
	}
	if got := reg.Histogram("wasted_seconds", nil).Sum(); got != 1.5 {
		t.Fatalf("wasted_seconds sum = %g", got)
	}
	if got := reg.Histogram("backoff_seconds", nil).Sum(); got != 0.5 {
		t.Fatalf("backoff_seconds sum = %g", got)
	}
}

// TestRegistryRecorderAllocs pins the recorder's per-record cost: once a
// stage's or kind's child exists, a span or event allocates nothing.
func TestRegistryRecorderAllocs(t *testing.T) {
	rec := RegistryRecorder{Reg: NewRegistry()}
	span := Span{Stage: StageExec, StartSec: 0, EndSec: 2}
	event := Event{Kind: EventCrash, DurSec: 1}
	rec.Span(span)
	rec.Event(event)
	if got := testing.AllocsPerRun(100, func() { rec.Span(span) }); got != 0 {
		t.Errorf("Span allocates %v per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { rec.Event(event) }); got != 0 {
		t.Errorf("Event allocates %v per call, want 0", got)
	}
}

func TestStageSummary(t *testing.T) {
	var m Memory
	m.BeginBurst(BurstInfo{Platform: "p", Instances: 2})
	m.Span(Span{Instance: 0, Stage: StageSched, StartSec: 0, EndSec: 1})
	m.Span(Span{Instance: 1, Stage: StageSched, StartSec: 0, EndSec: 3})
	m.Span(Span{Instance: 0, Stage: StageExec, StartSec: 1, EndSec: 2})
	m.Event(Event{Instance: 1, Kind: EventTimeout, AtSec: 3})

	var sb strings.Builder
	if err := FprintStageSummary(&sb, m.Bursts()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"stage", "sched", "exec", "timeout"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "build") {
		t.Fatalf("summary should omit empty stages:\n%s", out)
	}
	if !strings.Contains(out, "4.0s") { // sched total = 1 + 3
		t.Fatalf("summary missing sched total:\n%s", out)
	}
}

func TestLoggerAndLogRecorder(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, "bogus", false); err == nil {
		t.Fatal("bogus format accepted")
	}
	var sb strings.Builder
	lg, err := NewLogger(&sb, "json", true)
	if err != nil {
		t.Fatal(err)
	}
	rec := LogRecorder{L: lg}
	rec.BeginBurst(BurstInfo{Platform: "p", Functions: 4, Degree: 2, Instances: 2})
	rec.Span(Span{Instance: 0, Stage: StageBoot, StartSec: 0, EndSec: 0.1})
	rec.Event(Event{Instance: 1, Kind: EventStraggle, AtSec: 0.2, DurSec: 4})
	out := sb.String()
	for _, want := range []string{"burst begin", "stage span", "fault event", `"kind":"straggle"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	// Every line must be valid JSON with the json handler.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSON log line %q: %v", sc.Text(), err)
		}
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bursts_total").Inc()
	addr, stop, err := StartDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	for path, want := range map[string]string{
		"/metrics":    "bursts_total",
		"/debug/vars": "cmdline",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			body.WriteString(sc.Text())
			body.WriteByte('\n')
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			t.Fatalf("GET %s missing %q:\n%s", path, want, body.String())
		}
	}
}
