package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the tables
// in metrics.go equal, and both within the driver's limits.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	ws := newWorkloads(fullSizing())
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		unique(b.Workloads[i].Name)
		if b.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, b.Workloads[i].Name, w.name())
		}
		if n := len(b.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name(), n)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		unique(got.Name)
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, metrics.go %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	layers := layerMetrics()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := b.PerLayer[i]
		unique(got.Name)
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, metrics.go %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
	}
}

// checkEmitted asserts that a record carries exactly the declared metrics,
// each with its declared unit and a finite value.
func checkEmitted(t *testing.T, rec record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", rec.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", rec.Workload, d.Name, m.Unit, d.Unit)
		case m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300:
			t.Errorf("%s: %s is %v", rec.Workload, d.Name, m.Value)
		}
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rec.Workload, rec.Correct, rec.Attempted, rec.Failed)
	}
}

// TestSmokeUntraced runs every workload at the smoke sizing with tracing off
// and checks the end-to-end contract: every declared metric, never zero,
// every output equal to its golden.
func TestSmokeUntraced(t *testing.T) {
	o := options{seed: 1, seconds: 0.4, smoke: true}
	for _, w := range newWorkloads(o.sizing()) {
		rec, err := runUntraced(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		checkEmitted(t, rec, endToEnd)
		for name, m := range rec.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name(), name, m.Value)
			}
		}
		// The result line is what the driver parses.
		if err := printRecord(io.Discard, rec); err != nil {
			t.Error(err)
		}
	}
}

// TestSmokeTraced runs a trace run at the smoke sizing: every per-layer
// metric must come out, and the spans it wrote must form well-parented trees
// whose children and self time account for each parent.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 2, seconds: 0.8, smoke: true, trace: 1, traceDir: dir}
	named, err := workloadByName(o.sizing(), "serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := runTraced(named, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, rec, layerMetrics())
	// A trace run traces every workload, the named one longest.
	for _, w := range newWorkloads(o.sizing()) {
		buf, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(buf, &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: empty trace", w.name())
		}
		checkSpanTrees(t, w.name(), spans)
	}
}

// checkSpanTrees checks parentage and, with a union computed independently of
// selfTimes, that children plus self time make up each parent within 1 %.
func checkSpanTrees(t *testing.T, workload string, spans []span) {
	t.Helper()
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.ID == 0 {
			t.Fatalf("%s: malformed span %+v", workload, s)
		}
		byID[s.ID] = s
	}
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			// The trace file is a prefix of the window; a parent always
			// precedes its children, so a missing parent is a real defect.
			t.Fatalf("%s: span %d names parent %d, which is not in the trace", workload, s.ID, s.Parent)
		}
		if p.Op != s.Op {
			t.Errorf("%s: span %d of op %d has parent %d of op %d", workload, s.ID, s.Op, p.ID, p.Op)
		}
		tol := p.dur()/100 + 2000
		if s.StartNS < p.StartNS-tol || s.EndNS > p.EndNS+tol {
			t.Errorf("%s: span %s [%d,%d] lies outside its parent %s [%d,%d]",
				workload, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := selfTimes(spans)
	for id, ks := range kids {
		p := byID[id]
		// Sweep-line union of the children, clipped to the parent.
		type edge struct {
			at    int64
			delta int
		}
		var edges []edge
		for _, k := range ks {
			lo, hi := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
			if hi > lo {
				edges = append(edges, edge{lo, +1}, edge{hi, -1})
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		var union, last int64
		depth := 0
		for _, e := range edges {
			if depth > 0 {
				union += e.at - last
			}
			depth += e.delta
			last = e.at
		}
		if diff := p.dur() - (union + self[id]); diff > p.dur()/100 || diff < -p.dur()/100 {
			t.Errorf("%s: span %s: children cover %d ns, self %d ns, parent lasts %d ns", workload, p.Name, union, self[id], p.dur())
		}
		if self[id] < 0 {
			t.Errorf("%s: span %s has negative self time %d", workload, p.Name, self[id])
		}
	}
}

func TestSelfTimesUnionsOverlappingChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{Op: 1, ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},  // overlaps a
		{Op: 1, ID: 4, Parent: 1, Name: "c", StartNS: 80, EndNS: 120}, // runs past the root
		{Op: 1, ID: 5, Parent: 2, Name: "a.1", StartNS: 10, EndNS: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (60 + 20), 2: 30, 3: 40, 4: 40, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	agg := aggregate([][]span{spans}, 1)
	if agg.durNS["root"] != 100 || agg.calls["a"] != 1 || agg.self["root"] != 20 {
		t.Errorf("aggregate: %+v", agg)
	}
}

func TestQuietOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // n, n-1, ..., 1
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {2, 1}, {5, 3}, {15, 4}, {40, 4}, {60, 6}, {1000, 100},
	} {
		if got := quietOf(seq(c.n)); got != c.want {
			t.Errorf("quietOf of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

// compareCase builds records of one workload whose op_p50_ms takes the given
// values, every other metric held at 1.
func compareCase(p50s ...float64) []record {
	var recs []record
	for _, v := range p50s {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		m["op_p50_ms"] = metricValue{Value: v, Unit: "ms"}
		recs = append(recs, record{Workload: "advise-cold", Metrics: m})
	}
	return recs
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.0
	for _, d := range endToEnd {
		if d.Name == "op_p50_ms" {
			bound = d.Bound
		}
	}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     verdict
	}{
		{"unchanged", []float64{10, 10.1, 9.9, 10}, []float64{10, 10.05, 9.95, 10.1}, same},
		{"inside the bound", []float64{10, 10.1, 9.9, 10}, []float64{10.5, 10.6, 10.4, 10.5}, same},
		{"past the bound", []float64{10, 10.1, 9.9, 10}, []float64{14, 14.1, 13.9, 14}, worse},
		{"faster than the spread", []float64{10, 10.1, 9.9, 10}, []float64{9, 9.1, 8.9, 9}, better},
		{"too noisy to tell", []float64{10, 14, 8, 12}, []float64{11, 15, 9, 13}, unresolved},
		{"noisy but every run faster", []float64{10, 14, 11, 12}, []float64{5, 7, 6, 8}, better},
		{"noisy but every run slower", []float64{5, 7, 6, 8}, []float64{10, 14, 11, 12}, worse},
		{"single runs", []float64{10}, []float64{10 * (1 + bound + 0.01)}, worse},
	} {
		rows := compareRecords(compareCase(c.old...), compareCase(c.new...))
		if len(rows) != len(endToEnd) {
			t.Fatalf("%s: %d rows, want one per end-to-end metric (%d)", c.name, len(rows), len(endToEnd))
		}
		for _, r := range rows {
			want := same
			if r.Metric == "op_p50_ms" {
				want = c.want
				if r.Ratio != median(c.new)/median(c.old) {
					t.Errorf("%s: ratio %v, want new/old of the medians", c.name, r.Ratio)
				}
			}
			if r.Verdict != want {
				t.Errorf("%s: %s is %q, want %q (old %v new %v spread %.3f)", c.name, r.Metric, r.Verdict, want, r.Old, r.New, r.Spread)
			}
		}
	}
}

// TestCompareHigherIsBetter checks the direction flip for throughput.
func TestCompareHigherIsBetter(t *testing.T) {
	var ops metricDef
	for _, d := range endToEnd {
		if d.Name == "ops_per_s" {
			ops = d
		}
	}
	if got := compareMetric(ops, []float64{100, 101, 99, 100}, []float64{70, 71, 69, 70}).Verdict; got != worse {
		t.Errorf("throughput down 30%%: %q, want worse", got)
	}
	if got := compareMetric(ops, []float64{100, 101, 99, 100}, []float64{130, 131, 129, 130}).Verdict; got != better {
		t.Errorf("throughput up 30%%: %q, want better", got)
	}
}

func TestCompareFilesCountsWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	old := write("old.jsonl", compareCase(10, 10.1, 9.9, 10))
	slow := write("slow.jsonl", compareCase(14, 14.1, 13.9, 14))
	if n, err := compareFiles(io.Discard, old, old); err != nil || n != 0 {
		t.Errorf("a file against itself: %d worse, err %v", n, err)
	}
	if n, err := compareFiles(io.Discard, old, slow); err != nil || n != 1 {
		t.Errorf("40%% slower p50: %d worse, err %v; want 1", n, err)
	}
}
