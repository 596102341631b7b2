package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the whole registry,
// the only form in which metrics leave the process: every family under one
// `# TYPE` line, histograms as cumulative _bucket/_sum/_count series. An
// unlabeled metric is its family's zero-label child and renders as a bare
// `name value` sample. The encoder is deterministic — families sort
// by name, series sort by label values — so golden tests and diff-based
// alerting both work against it.

// PrometheusContentType is the Content-Type of WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every metric in Prometheus text format, running
// registered collectors first so derived metrics are scrape-fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	type named struct {
		name string // sanitized
		f    family
	}
	var fams []named
	r.families.Range(func(k, v any) bool {
		fams = append(fams, named{sanitizeMetricName(k.(string)), v.(family)})
		return true
	})
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		kind, _ := f.f.describe()
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(kind)
		bw.WriteByte('\n')
		f.f.write(bw, f.name)
	}
	return bw.Flush()
}

func (v *CounterVec) write(bw *bufio.Writer, name string) {
	v.Range(func(values []string, c *Counter) {
		writeSample(bw, name, formatLabels(v.labels, values), float64(c.Value()))
	})
}

func (v *GaugeVec) write(bw *bufio.Writer, name string) {
	v.Range(func(values []string, g *Gauge) {
		writeSample(bw, name, formatLabels(v.labels, values), g.Value())
	})
}

func (v *HistogramVec) write(bw *bufio.Writer, name string) {
	v.Range(func(values []string, h *Histogram) {
		writeHistogram(bw, name, formatLabels(v.labels, values), h)
	})
}

// writeSample emits one `name{labels} value` line; labels may be "".
func writeSample(bw *bufio.Writer, name, labels string, v float64) {
	bw.WriteString(name)
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series (including +Inf), then
// _sum and _count. labels carries the series' own labels ("" for a scalar
// histogram); the le label is appended to it.
func writeHistogram(bw *bufio.Writer, name, labels string, h *Histogram) {
	bounds, counts, sum, n := h.export()
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		writeSample(bw, name+"_bucket", prefix+`le="`+formatValue(b)+`"`, float64(cum))
	}
	writeSample(bw, name+"_bucket", prefix+`le="+Inf"`, float64(n))
	writeSample(bw, name+"_sum", labels, sum)
	writeSample(bw, name+"_count", labels, float64(n))
}

// formatValue renders a float the way Prometheus expects: integral values
// without an exponent, everything else in shortest round-trip form, with
// infinities spelled +Inf/-Inf and NaN as NaN.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	if v == math.Trunc(v) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLabels renders `k1="v1",k2="v2"` with label names sanitized and
// values escaped per the exposition format (backslash, quote, newline).
func formatLabels(labels, values []string) string {
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabelName(l))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// sanitizeMetricName maps a registry name onto the exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes (a hyphen, say) become '_'.
func sanitizeMetricName(name string) string {
	return sanitizeName(name, true)
}

// sanitizeLabelName maps a label name onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(name string) string {
	return sanitizeName(name, false)
}

func sanitizeName(name string, allowColon bool) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(allowColon && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// MetricsHandler serves the registry over HTTP in Prometheus text format
// (version 0.0.4), the registry's only exposition.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = reg.WritePrometheus(w)
	})
}
