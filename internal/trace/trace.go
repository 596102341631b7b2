// Package trace converts raw burst results into the paper's figures of
// merit and formats experiment output as aligned tables and CSV.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/platform"
)

// Metrics are the quantities the paper reports per run (Sec. 3): scaling
// time; total, tail (95th percentile), and median service times; expense;
// and function-hours of consumed compute.
type Metrics struct {
	Platform      string  `json:"platform"`
	Degree        int     `json:"degree"`
	Instances     int     `json:"instances"`
	ScalingTime   float64 `json:"scaling_time_sec"`
	TotalService  float64 `json:"total_service_sec"`
	TailService   float64 `json:"tail_service_sec"`   // first 95% of instances done
	MedianService float64 `json:"median_service_sec"` // first 50% of instances done
	ExpenseUSD    float64 `json:"expense_usd"`
	FunctionHours float64 `json:"function_hours"`
	MeanExecSec   float64 `json:"mean_exec_sec"`

	// Fault-tolerance counters (failure injection, retries, hedging).
	// All zero on a clean run.
	Retries        int     `json:"retries"`         // cold-start re-submissions
	Crashes        int     `json:"crashes"`         // mid-execution crashes retried
	Timeouts       int     `json:"timeouts"`        // execution-timeout kills retried
	HedgesLaunched int     `json:"hedges_launched"` // speculative duplicates started
	HedgesWon      int     `json:"hedges_won"`      // duplicates that finished first
	HedgesWasted   int     `json:"hedges_wasted"`   // duplicates the primary beat
	FailedSec      float64 `json:"failed_sec"`      // billed execution seconds of failed attempts
	WastedUSD      float64 `json:"wasted_usd"`      // dollars spent on work that produced no results
}

// FromResult extracts Metrics from a simulated burst.
func FromResult(r *platform.Result) Metrics {
	// Tail and median come from one copy of the end times and one selection over it.
	svc := r.ServiceTimeAtQuantiles(95, 50)
	return Metrics{
		Platform:       r.Config.Name,
		Degree:         r.Burst.Degree, // 0 for heterogeneous (mixed) bursts
		Instances:      r.Instances(),
		ScalingTime:    r.ScalingTime(),
		TotalService:   r.TotalServiceTime(),
		TailService:    svc[0],
		MedianService:  svc[1],
		ExpenseUSD:     r.ExpenseUSD(),
		FunctionHours:  r.FunctionSeconds() / 3600,
		MeanExecSec:    r.MeanExecSeconds(),
		Retries:        r.StartRetries,
		Crashes:        r.Crashes,
		Timeouts:       r.Timeouts,
		HedgesLaunched: r.HedgesLaunched,
		HedgesWon:      r.HedgesWon,
		HedgesWasted:   r.HedgesLaunched - r.HedgesWon,
		FailedSec:      r.FailedSeconds(),
		WastedUSD:      r.WastedUSD,
	}
}

// Improvement returns the percentage improvement of got over base for a
// lower-is-better metric: 100·(1 − got/base). Negative means regression.
// A zero base makes the ratio meaningless, so it yields NaN — render it as
// "n/a", never as a real percentage (it used to read as a misleading 0%).
func Improvement(base, got float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (1 - got/base)
}

// WriteMetricsJSON writes the metrics as one JSON object on a single line
// (JSON-lines friendly: `propack run -json | jq .` and appending sweep rows
// both work).
func WriteMetricsJSON(w io.Writer, m Metrics) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Table is a rectangular experiment result ready to print: one row per
// configuration, one column per reported quantity.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of formatted cells. The row must match the header
// width; mismatches panic because they are driver bugs.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("trace: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len([]rune(c)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	var rule []string
	for _, width := range widths {
		rule = append(rule, strings.Repeat("-", width))
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// FprintCSV writes the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) FprintCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
