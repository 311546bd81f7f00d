package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestInstrumentRequestID pins the correlation contract: an incoming
// X-Allarm-Request-Id is adopted (context + response echo), a missing
// one is minted, and the structured request log carries it along with
// method/route/status/duration.
func TestInstrumentRequestID(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	var seenCtxID string
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenCtxID = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}), MiddlewareOptions{
		Logger:   logger,
		Registry: reg,
		Prefix:   "t_",
		Route:    func(r *http.Request) string { return "GET /brew" },
	})

	// Caller-provided id is adopted.
	req := httptest.NewRequest("GET", "/brew", nil)
	req.Header.Set(RequestIDHeader, "caller-id-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenCtxID != "caller-id-1" {
		t.Fatalf("context id = %q, want caller-id-1", seenCtxID)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "caller-id-1" {
		t.Fatalf("echoed id = %q, want caller-id-1", got)
	}

	// Missing id is minted and echoed.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/brew", nil))
	minted := rec.Header().Get(RequestIDHeader)
	if minted == "" || minted == "caller-id-1" {
		t.Fatalf("no fresh id minted: %q", minted)
	}
	if seenCtxID != minted {
		t.Fatalf("context id %q != echoed id %q", seenCtxID, minted)
	}

	// Request log lines carry the id and the route label.
	sc := bufio.NewScanner(&logBuf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad log line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	first := lines[0]
	if first["msg"] != "request" || first["method"] != "GET" ||
		first["route"] != "GET /brew" || first["status"] != float64(http.StatusTeapot) ||
		first["request_id"] != "caller-id-1" {
		t.Fatalf("log line missing fields: %v", first)
	}
	if _, ok := first["duration"]; !ok {
		t.Fatalf("log line has no duration: %v", first)
	}

	// Both requests landed in the per-route latency histogram.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	fams := parsePrometheus(t, sb.String())
	f := fams["t_http_request_duration_seconds"]
	if f == nil {
		t.Fatal("no http latency family")
	}
	if got := f.samples[`t_http_request_duration_seconds_count{route="GET /brew"}`]; got != 2 {
		t.Fatalf("route histogram count = %v, want 2", got)
	}
}

// TestInstrumentHealthzLogsDebug keeps poller noise out of the default
// log stream.
func TestInstrumentHealthzLogsDebug(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		MiddlewareOptions{Logger: logger})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
	if logBuf.Len() != 0 {
		t.Fatalf("healthz/metrics logged at info: %q", logBuf.String())
	}
}

// TestStatusWriterFlusher keeps SSE alive through the middleware: the
// wrapped writer must still expose Flush.
func TestStatusWriterFlusher(t *testing.T) {
	var flushed bool
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("instrumented writer lost http.Flusher")
		}
		f.Flush()
		flushed = true
	}), MiddlewareOptions{})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/events", nil))
	if !flushed {
		t.Fatal("handler never ran")
	}
}

func TestNewLoggerRejectsBadFlags(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestTimelineSortStable(t *testing.T) {
	var tl Timeline
	tl.Add(TimelineEvent{Event: "accepted", Job: -1})
	tl.Add(TimelineEvent{Event: "started", Job: 0})
	ev := tl.Snapshot()
	if len(ev) != 2 || ev[0].Event != "accepted" || ev[0].Time.IsZero() {
		t.Fatalf("snapshot = %+v", ev)
	}
	SortEvents(ev)
	if ev[0].Event != "accepted" || ev[1].Event != "started" {
		t.Fatalf("sort reordered same-order events: %+v", ev)
	}
}

func TestTimelineGrow(t *testing.T) {
	var tl Timeline
	tl.Add(TimelineEvent{Event: "accepted", Job: -1})
	tl.Grow(64)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 32; i++ {
			tl.Add(TimelineEvent{Event: "started", Job: i})
		}
	}); n != 0 {
		t.Fatalf("64 Adds after Grow(64) allocated %v times", n)
	}
	if ev := tl.Snapshot(); len(ev) != 65 || ev[0].Event != "accepted" || ev[64].Job != 31 {
		t.Fatalf("snapshot has %d events", len(ev))
	}
}
