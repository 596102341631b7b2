package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// verdict classifies one (workload, end-to-end metric) pair of two record
// sets, following the choosing-metrics rules: worse than the bound is a
// regression; a pair whose run-to-run spread is wider than its bound cannot
// be called unchanged, so it is unresolved unless every run of one side
// beats every run of the other.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// comparison is one row of the comparator's table.
type comparison struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians
	Ratio                  float64 // New / Old; Old is the base
	Spread                 float64 // the wider of the two sides' spreads, as a share of its median
	Bound                  float64
	Verdict                verdict
}

// spread is the run-to-run spread of one side as a share of its median: the
// distance between the quartiles with four or more runs, the whole range
// with fewer.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartile(s, 1), quartile(s, 3)
	}
	return (hi - lo) / med
}

// quartile is the k-th quartile of sorted samples by the exclusive method
// (the default of Python's statistics.quantiles, which the driver uses).
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k)*float64(n+1)/4 - 1
	i := int(pos)
	if i < 0 {
		return sorted[0]
	}
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// compareMetric judges new against old for one metric.
func compareMetric(def metricDef, old, new []float64) comparison {
	c := comparison{Metric: def.Name, Unit: def.Unit, Bound: def.Bound, Old: median(old), New: median(new)}
	c.Ratio = c.New / c.Old
	c.Spread = max(spread(old), spread(new))
	// worsening is the relative change in the direction that hurts.
	worsening := c.Ratio - 1
	if def.Better == "higher" {
		worsening = 1 - c.Ratio
	}
	lowerIsBetter := def.Better == "lower"
	switch {
	case c.Spread > c.Bound && allBeat(new, old, lowerIsBetter):
		c.Verdict = better
	case c.Spread > c.Bound && allBeat(old, new, lowerIsBetter) && worsening > c.Bound:
		c.Verdict = worse
	case c.Spread > c.Bound:
		c.Verdict = unresolved
	case worsening > c.Bound:
		c.Verdict = worse
	case -worsening > c.Spread && worsening < 0:
		c.Verdict = better
	default:
		c.Verdict = same
	}
	return c
}

// allBeat reports whether every run of a is better than every run of b.
func allBeat(a, b []float64, lowerIsBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lowerIsBetter && x >= y || !lowerIsBetter && x <= y {
				return false
			}
		}
	}
	return true
}

// readRecords loads the untraced, full-size records of a JSON-lines file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// compareRecords builds one row per (workload, end-to-end metric) present on
// both sides, workloads in their fixed order.
func compareRecords(old, new []record) []comparison {
	collect := func(recs []record) map[string]map[string][]float64 {
		m := map[string]map[string][]float64{}
		for _, r := range recs {
			if m[r.Workload] == nil {
				m[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				m[r.Workload][name] = append(m[r.Workload][name], v.Value)
			}
		}
		return m
	}
	o, n := collect(old), collect(new)
	var rows []comparison
	for _, w := range newWorkloads(fullSizing()) {
		for _, def := range endToEnd {
			ov, nv := o[w.name()][def.Name], n[w.name()][def.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			c := compareMetric(def, ov, nv)
			c.Workload = w.name()
			rows = append(rows, c)
		}
	}
	return rows
}

// compareFiles prints the comparison table and returns how many rows are
// worse than their bound.
func compareFiles(out io.Writer, oldPath, newPath string) (int, error) {
	old, err := readRecords(oldPath)
	if err != nil {
		return 0, err
	}
	new, err := readRecords(newPath)
	if err != nil {
		return 0, err
	}
	rows := compareRecords(old, new)
	if len(rows) == 0 {
		return 0, fmt.Errorf("no (workload, metric) pair in both %s and %s", oldPath, newPath)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (base)\tnew\tnew/old\tspread\tbound\tverdict")
	nWorse := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.1f%%\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.Old, c.Unit, c.New, c.Unit, c.Ratio, c.Spread*100, c.Bound*100, c.Verdict)
		if c.Verdict == worse {
			nWorse++
		}
	}
	return nWorse, tw.Flush()
}
