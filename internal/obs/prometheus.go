package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the v0.0.4 text
// exposition format served for ?format=prometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPrometheus reports whether a /metrics request asked for
// Prometheus text exposition instead of the default JSON: either an
// explicit ?format=prometheus, or an Accept header naming text/plain
// or an openmetrics type (what prometheus scrapers send). Browsers and
// the existing jq pipelines send neither, so JSON stays the default
// and remains byte-compatible.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// WritePrometheus renders every registered series in the Prometheus
// v0.0.4 text format: one # HELP and # TYPE line per family (at first
// occurrence, in registration order), then the samples. Histograms
// emit cumulative _bucket{le=...} samples, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	headered := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if !headered[m.name] {
			headered[m.name] = true
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typeString(m.kind))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.labels, "", ""), m.c.Load())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", m.name, labelString(m.labels, "", ""), formatFloat(m.fn()))
		case kindHistogram:
			writeHistogram(w, m)
		}
	}
}

// writeHistogram emits the cumulative bucket series. _count is derived
// from the same per-bucket loads as the +Inf bucket so the two always
// agree even while other goroutines record concurrently.
func writeHistogram(w io.Writer, m *metric) {
	h := m.h
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := formatFloat(float64(b) * h.scale)
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", le), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelString(m.labels, "", ""), formatFloat(float64(h.sum.Load())*h.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelString(m.labels, "", ""), cum)
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelString renders {a="b",...}, appending the extra pair (used for
// le) when extraName is non-empty. Labels are sorted by name so series
// identity is stable regardless of registration argument order.
func labelString(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	ls := append([]Label(nil), labels...)
	if extraName != "" {
		ls = append(ls, Label{extraName, extraValue})
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
