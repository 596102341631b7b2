package trace

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/workload"
)

func TestFromResult(t *testing.T) {
	res, err := platform.Run(platform.AWSLambda(),
		platform.Burst{Demand: workload.Video{}.Demand(), Functions: 100, Degree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := FromResult(res)
	if m.Platform != "AWS Lambda" || m.Degree != 4 || m.Instances != 25 {
		t.Fatalf("identity fields wrong: %+v", m)
	}
	if !(m.MedianService <= m.TailService && m.TailService <= m.TotalService) {
		t.Fatalf("service quantiles unordered: %+v", m)
	}
	if m.ExpenseUSD <= 0 || m.FunctionHours <= 0 || m.ScalingTime <= 0 {
		t.Fatalf("non-positive metrics: %+v", m)
	}
	if math.Abs(m.FunctionHours*3600-m.MeanExecSec*float64(m.Instances)) > 1e-6*m.FunctionHours*3600 {
		t.Fatal("function-hours inconsistent with mean exec")
	}
}

// TestFromResultLeanVsFullColumns: a dice-free Result carries no fault or
// hedge columns; one simulated under an execution timeout that can never fire
// carries all of them, zero, and schedules every event. The two are the same
// burst, and every Metrics field must be the same bits.
func TestFromResultLeanVsFullColumns(t *testing.T) {
	d := workload.Video{}.Demand()
	for _, b := range []platform.Burst{
		{Demand: d, Functions: 1, Degree: 1, Seed: 1},
		{Demand: d, Functions: 999, Degree: 4, Warm: 5, Seed: 2},
		{Demand: d, Functions: 3000, Degree: 1, StaggerSec: 0.001, Seed: 3},
	} {
		for _, podSize := range []int{0, 4} {
			lean := platform.AWSLambda()
			lean.PodSize = podSize
			full := lean
			full.ExecTimeoutSec = full.MaxExecSec
			lr, err := platform.Run(lean, b)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := platform.Run(full, b)
			if err != nil {
				t.Fatal(err)
			}
			if lm, fm := FromResult(lr), FromResult(fr); lm != fm {
				t.Errorf("C=%d pod=%d: lean %+v\nfull %+v", b.Functions, podSize, lm, fm)
			}
		}
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 15); math.Abs(got-85) > 1e-12 {
		t.Fatalf("Improvement(100,15) = %g", got)
	}
	if got := Improvement(100, 120); math.Abs(got+20) > 1e-12 {
		t.Fatalf("regression should be negative: %g", got)
	}
	if got := Improvement(0, 5); !math.IsNaN(got) {
		t.Fatalf("zero base should yield NaN, got %g", got)
	}
}

func TestTablePrint(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"app", "value"}}
	tb.AddRow("Video", "85.0")
	tb.AddRow("Sort", "52.2")
	var b strings.Builder
	if err := tb.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# demo", "app", "Video  85.0", "Sort   52.2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow(`with,comma`, `with"quote`)
	var b strings.Builder
	if err := tb.FprintCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"with,comma\",\"with\"\"quote\"\n"
	if b.String() != want {
		t.Fatalf("CSV got %q want %q", b.String(), want)
	}
}

func TestTableRowWidthMismatchPanics(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tb.AddRow("only-one")
}

func TestTableCSVQuotesNewlines(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow("line1\nline2", "plain")
	var b strings.Builder
	if err := tb.FprintCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"line1\nline2\",plain\n"
	if b.String() != want {
		t.Fatalf("CSV got %q want %q", b.String(), want)
	}
}

func TestTableAlignsUnicodeCells(t *testing.T) {
	// Width accounting is per rune, not per byte: a multi-byte cell must
	// not shift the columns after it.
	tb := Table{Header: []string{"app", "val"}}
	tb.AddRow("héllo", "1")
	tb.AddRow("world", "2")
	var b strings.Builder
	if err := tb.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	runeCol := func(s, sub string) int { return len([]rune(s[:strings.Index(s, sub)])) }
	col := runeCol(lines[2], "1")
	if got := runeCol(lines[3], "2"); got != col {
		t.Fatalf("value column drifted: %d vs %d\n%s", got, col, b.String())
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteMetricsJSON(&b, Metrics{Platform: "AWS Lambda", Degree: 3, ExpenseUSD: 1.5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly one JSON line, got %q", out)
	}
	for _, want := range []string{`"platform":"AWS Lambda"`, `"degree":3`, `"expense_usd":1.5`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %s: %s", want, out)
		}
	}
}

func TestWriteTimelinesCSV(t *testing.T) {
	res, err := platform.Run(platform.AWSLambda(),
		platform.Burst{Demand: workload.Video{}.Demand(), Functions: 6, Degree: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTimelinesCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 { // header + 3 instances
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "index,degree,warm") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,2,0,0,") {
		t.Fatalf("bad first row %q", lines[1])
	}
	if err := WriteTimelinesCSV(&b, nil); err == nil {
		t.Fatal("nil result accepted")
	}
}

// TestWriteTimelinesCSVFaultyHedged checks the file is a complete record of
// a burst with every kind of outcome in it: each row has one cell per header
// column, straggled and hedge_extra_sec trail the original fourteen, and the
// wasted spend recomputed from the rows alone matches Result.WastedUSD.
func TestWriteTimelinesCSVFaultyHedged(t *testing.T) {
	cfg := platform.AWSLambda()
	cfg.CrashRate = 0.001
	cfg.StragglerProb = 0.1
	cfg.StragglerFactor = 2.5
	cfg.Hedge.Quantile = 85
	cfg.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 1, CapSec: 30, MaxAttempts: 50}
	res, err := platform.Run(cfg,
		platform.Burst{Demand: workload.Video{}.Demand(), Functions: 600, Degree: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.HedgesWon == 0 || res.HedgesLaunched == res.HedgesWon {
		t.Fatalf("burst lacks crashes or both hedge outcomes: %+v", FromResult(res))
	}
	var b strings.Builder
	if err := WriteTimelinesCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+res.Instances() {
		t.Fatalf("got %d lines, want header + %d rows", len(lines), res.Instances())
	}
	header := strings.Split(lines[0], ",")
	if len(header) != 16 || header[14] != "straggled" || header[15] != "hedge_extra_sec" {
		t.Fatalf("bad header %q", lines[0])
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	var wastedSec float64
	var straggled int
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row has %d cells, header %d: %q", len(cells), len(header), line)
		}
		num := func(name string) float64 {
			v, err := strconv.ParseFloat(cells[col[name]], 64)
			if err != nil {
				t.Fatalf("column %s of %q: %v", name, line, err)
			}
			return v
		}
		straggled += int(num("straggled"))
		wastedSec += num("failed_sec")
		if num("hedged") == 1 {
			if num("hedge_won") == 1 {
				wastedSec += num("end") - num("start")
			} else {
				wastedSec += num("hedge_extra_sec")
			}
		}
	}
	if straggled == 0 {
		t.Fatal("no straggled attempt made it into the file")
	}
	// Cells carry six decimals, so the recomputation is exact to ~1e-6 s per
	// instance, not to the bit.
	got := wastedSec * cfg.MemoryGB() * cfg.GBSecondUSD
	if math.Abs(got-res.WastedUSD) > 1e-6*res.WastedUSD {
		t.Fatalf("WastedUSD recomputed from the CSV = %.9f, Result says %.9f", got, res.WastedUSD)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteTimelinesCSVReportsWriteError: the rows are buffered, so a writer
// that fails — at once, or only when the final partial buffer is flushed —
// must still surface through the returned error.
func TestWriteTimelinesCSVReportsWriteError(t *testing.T) {
	res, err := platform.Run(platform.AWSLambda(),
		platform.Burst{Demand: workload.Video{}.Demand(), Functions: 200, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	if err := WriteTimelinesCSV(&full, res); err != nil {
		t.Fatal(err)
	}
	for _, accept := range []int{0, 100, full.Len() - 1} {
		if err := WriteTimelinesCSV(&failAfter{n: accept}, res); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d of %d bytes: err = %v, want errDiskFull", accept, full.Len(), err)
		}
	}
	if err := WriteTimelinesCSV(&failAfter{n: full.Len()}, res); err != nil {
		t.Errorf("writer with exactly enough room: %v", err)
	}
}

// TestAllocsPerRunFromResult is trace's share of the columnar-Result
// allocation gate (the rest is in internal/platform): extracting Metrics
// allocates the one copy of the end column that the quantile sort needs —
// 8 B/instance — and nothing else proportional to n. Materializing the row
// view would cost 120 B/instance.
func TestAllocsPerRunFromResult(t *testing.T) {
	const n = 10_000
	res, err := platform.Run(platform.AWSLambda(),
		platform.Burst{Demand: workload.Video{}.Demand(), Functions: n, Degree: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The least of three windows: a collection that lands inside one adds
	// the runtime's own objects to it (seen once, 9 for 6, with every package
	// testing at once), and no window can undercount.
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := FromResult(res)
		runtime.ReadMemStats(&after)
		if m.Instances != n {
			t.Fatalf("instances %d, want %d", m.Instances, n)
		}
		bytes, objects = min(bytes, after.TotalAlloc-before.TotalAlloc), min(objects, after.Mallocs-before.Mallocs)
	}
	if per := float64(bytes) / n; per > 10 {
		t.Errorf("FromResult allocates %.1f B/instance, want ≤ 10 (one copy of the end column)", per)
	}
	if objects > 6 {
		t.Errorf("FromResult allocates %d objects, want ≤ 6", objects)
	}
}
