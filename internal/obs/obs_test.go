package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines while exposition runs concurrently — under -race this
// pins the lock-free record path, and the final counts must balance.
func TestHistogramConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_lat_seconds", "test latency", 1e-9, ExpBuckets(1000, 1_000_000))

	const goroutines, perG = 8, 10_000
	var recorders sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper exercises read-during-write
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				reg.WritePrometheus(&sb)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		recorders.Add(1)
		go func(g int) {
			defer recorders.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(g*perG + i))
			}
		}(g)
	}
	recorders.Wait()
	close(stop)
	<-scraperDone

	// Bucket counts must sum to the total (cumulative +Inf invariant), and
	// _count must equal it.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	fams := parsePrometheus(t, sb.String())
	f := fams["t_lat_seconds"]
	if f == nil {
		t.Fatal("histogram family missing from exposition")
	}
	inf := f.samples["t_lat_seconds_bucket{le=\"+Inf\"}"]
	cnt := f.samples["t_lat_seconds_count"]
	if inf != float64(goroutines*perG) || cnt != inf {
		t.Fatalf("+Inf bucket %v, _count %v, want both %d", inf, cnt, goroutines*perG)
	}
}

// family is one parsed metric family: TYPE, HELP and its samples.
type family struct {
	typ     string
	help    string
	samples map[string]float64 // "name{labels}" -> value
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parsePrometheus is a strict v0.0.4 text-format parser: every line
// must be a well-formed # HELP, # TYPE or sample line; samples must
// belong to a family declared by a preceding # TYPE; names and label
// keys must match the Prometheus grammar. Any drift in the exposition
// writer fails here.
func parsePrometheus(t *testing.T, text string) map[string]*family {
	t.Helper()
	fams := make(map[string]*family)
	var lastFamily string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			f := fams[name]
			if f == nil {
				f = &family{samples: make(map[string]float64)}
				fams[name] = f
			}
			f.help = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 || !nameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", lineNo, parts[1])
			}
			f := fams[parts[0]]
			if f == nil {
				f = &family{samples: make(map[string]float64)}
				fams[parts[0]] = f
			}
			f.typ = parts[1]
			lastFamily = parts[0]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment: %q", lineNo, line)
		default:
			name, labels, value := parseSample(t, lineNo, line)
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count", "_total"} {
				if trimmed, ok := strings.CutSuffix(name, suf); ok && fams[trimmed] != nil {
					base = trimmed
					break
				}
			}
			f := fams[base]
			if f == nil {
				t.Fatalf("line %d: sample %q without TYPE declaration", lineNo, name)
			}
			if base != lastFamily && fams[lastFamily] != f {
				// Samples must stay grouped under their family header.
				t.Fatalf("line %d: sample %q outside its family block (last TYPE %q)", lineNo, name, lastFamily)
			}
			key := name
			if labels != "" {
				key += "{" + labels + "}"
			}
			f.samples[key] = value
		}
	}
	return fams
}

// parseSample validates one sample line and returns (name, canonical
// label string, value).
func parseSample(t *testing.T, lineNo int, line string) (string, string, float64) {
	t.Helper()
	// Label values may contain spaces (route="GET /x"), so the value is
	// whatever follows the closing brace — or the first space when there
	// are no labels.
	var metricPart, valuePart string
	if i := strings.LastIndexByte(line, '}'); i >= 0 {
		metricPart = line[:i+1]
		valuePart = strings.TrimPrefix(line[i+1:], " ")
	} else {
		var ok bool
		metricPart, valuePart, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", lineNo, line)
		}
	}
	value, err := strconv.ParseFloat(valuePart, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, valuePart, err)
	}
	name := metricPart
	labels := ""
	if i := strings.IndexByte(metricPart, '{'); i >= 0 {
		if !strings.HasSuffix(metricPart, "}") {
			t.Fatalf("line %d: unterminated labels: %q", lineNo, line)
		}
		name = metricPart[:i]
		body := metricPart[i+1 : len(metricPart)-1]
		var parts []string
		for _, pair := range splitLabelPairs(t, lineNo, body) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !labelRe.MatchString(k) {
				t.Fatalf("line %d: malformed label pair %q", lineNo, pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: label value not quoted: %q", lineNo, pair)
			}
			parts = append(parts, k+"="+v)
		}
		if !sort.StringsAreSorted(parts) {
			t.Fatalf("line %d: labels not sorted: %q", lineNo, body)
		}
		labels = strings.Join(parts, ",")
	}
	if !nameRe.MatchString(name) {
		t.Fatalf("line %d: bad metric name %q", lineNo, name)
	}
	return name, labels, value
}

// splitLabelPairs splits a{...} body on commas outside quotes.
func splitLabelPairs(t *testing.T, lineNo int, body string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range body {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(c)
		case c == '\\' && inQuote:
			escaped = true
			cur.WriteRune(c)
		case c == '"':
			inQuote = !inQuote
			cur.WriteRune(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if inQuote {
		t.Fatalf("line %d: unbalanced quotes in labels %q", lineNo, body)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// TestPrometheusExpositionGolden registers one of each metric kind,
// records known values and pins the exact rendered text, then runs the
// strict parser over it so neither the bytes nor the grammar can
// drift.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_jobs_run_total", "Jobs run.")
	reg.Gauge("t_active", "Active sweeps.", func() float64 { return 2.5 })
	h := reg.Histogram("t_dur_seconds", "Job duration.", 1e-9,
		[]uint64{1_000_000, 2_000_000, 4_000_000}, Label{"kind", "job"})

	c.Add(3)
	h.Observe(500_000)   // le 0.001
	h.Observe(1_500_000) // le 0.002
	h.Observe(9_000_000) // +Inf

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	got := sb.String()

	want := strings.Join([]string{
		"# HELP t_jobs_run_total Jobs run.",
		"# TYPE t_jobs_run_total counter",
		"t_jobs_run_total 3",
		"# HELP t_active Active sweeps.",
		"# TYPE t_active gauge",
		"t_active 2.5",
		"# HELP t_dur_seconds Job duration.",
		"# TYPE t_dur_seconds histogram",
		`t_dur_seconds_bucket{kind="job",le="0.001"} 1`,
		`t_dur_seconds_bucket{kind="job",le="0.002"} 2`,
		`t_dur_seconds_bucket{kind="job",le="0.004"} 2`,
		`t_dur_seconds_bucket{kind="job",le="+Inf"} 3`,
		`t_dur_seconds_sum{kind="job"} 0.011000000000000001`,
		`t_dur_seconds_count{kind="job"} 3`,
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	fams := parsePrometheus(t, got)
	if f := fams["t_jobs_run_total"]; f.typ != "counter" || f.help != "Jobs run." || f.samples["t_jobs_run_total"] != 3 {
		t.Fatalf("counter family parsed wrong: %+v", f)
	}
	if f := fams["t_dur_seconds"]; f.typ != "histogram" {
		t.Fatalf("histogram family parsed wrong: %+v", f)
	}
	// Cumulative bucket invariant: counts non-decreasing in le order.
	f := fams["t_dur_seconds"]
	prev := -1.0
	for _, le := range []string{"0.001", "0.002", "0.004", "+Inf"} {
		v := f.samples[fmt.Sprintf("t_dur_seconds_bucket{kind=%q,le=%q}", "job", le)]
		if v < prev {
			t.Fatalf("bucket le=%s count %v < previous %v", le, v, prev)
		}
		prev = v
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1000, 8000)
	want := []uint64{1000, 2000, 4000, 8000}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	reg.Gauge("t_x", "x", func() float64 { return 0 })
}
