package faultnet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWindowRulesExactOrdinals: Skip/Count/Every fire on exact match
// ordinals, independent of seed — the determinism tests assert against.
func TestWindowRulesExactOrdinals(t *testing.T) {
	plan := Plan{Rules: []Rule{
		{Name: "burst", Path: "/a", Skip: 2, Count: 3, Status: 503},
		{Name: "flap", Path: "/h", Every: 2, Status: 500},
	}}
	in, err := New(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 8; i++ {
		d := in.decide("GET", "x", "/a")
		got = append(got, d.status)
	}
	// Skip 2, then a burst of exactly 3, then clean.
	want := []int{0, 0, 503, 503, 503, 0, 0, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("burst pattern %v, want %v", got, want)
	}
	got = got[:0]
	for i := 0; i < 6; i++ {
		d := in.decide("GET", "x", "/h")
		got = append(got, d.status)
	}
	// Every 2: fire on armed matches 1, 3, 5 — a deterministic flap.
	want = []int{500, 0, 500, 0, 500, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flap pattern %v, want %v", got, want)
	}
}

// TestSeededDeterminism: same plan + seed + arrival order replays the
// identical decision sequence; a different seed diverges.
func TestSeededDeterminism(t *testing.T) {
	plan := Plan{Rules: []Rule{{Name: "p50", P: 0.5, Drop: true}}}
	seq := func(seed int64) string {
		in, err := New(plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if in.decide("GET", "x", "/").drop {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b := seq(42), seq(42)
	if a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := seq(43); c == a {
		t.Errorf("different seeds produced identical sequences (%s)", a)
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Errorf("p=0.5 sequence degenerate: %s", a)
	}
}

// TestRuleMatchers: method, host and path-prefix selection.
func TestRuleMatchers(t *testing.T) {
	plan := Plan{Rules: []Rule{
		{Name: "post-only", Method: "POST", Status: 500},
		{Name: "host", Host: "h1:1", Path: "/v1/", Status: 502},
	}}
	in, err := New(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.decide("GET", "h2:1", "/x"); d.terminal() {
		t.Errorf("unmatched request faulted: %+v", d)
	}
	if d := in.decide("POST", "h2:1", "/x"); d.status != 500 {
		t.Errorf("method match: %+v", d)
	}
	if d := in.decide("GET", "h1:1", "/v1/sweeps"); d.status != 502 {
		t.Errorf("host+path match: %+v", d)
	}
	if d := in.decide("GET", "h1:1", "/healthz"); d.terminal() {
		t.Errorf("path prefix over-matched: %+v", d)
	}
}

// TestRoundTripperFaults: drops become transport errors, statuses are
// synthesized with Retry-After, latency delays, slow bodies meter reads
// — and untargeted requests pass through untouched.
func TestRoundTripperFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	defer backend.Close()

	plan := Plan{Rules: []Rule{
		{Name: "drop", Path: "/drop", Drop: true},
		{Name: "throttle", Path: "/throttle", Status: 429, RetryAfterMs: 1500},
		{Name: "lag", Path: "/lag", LatencyMs: 30},
		{Name: "dribble", Path: "/slow", SlowBodyMs: 10},
	}}
	in, err := New(plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: in.RoundTripper(nil)}

	if _, err := client.Get(backend.URL + "/drop"); err == nil {
		t.Error("drop rule: request succeeded")
	} else if !strings.Contains(err.Error(), "connection reset by rule drop") {
		t.Errorf("drop rule error: %v", err)
	}

	resp, err := client.Get(backend.URL + "/throttle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("throttle status %d", resp.StatusCode)
	}
	// 1500ms rounds up to the header's whole-second granularity.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want 2", ra)
	}

	start := time.Now()
	resp, err = client.Get(backend.URL + "/lag")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("latency rule added only %s", d)
	}

	resp, err = client.Get(backend.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "payload" {
		t.Errorf("slow body corrupted payload: %q", body)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("slow body added only %s", d)
	}

	resp, err = client.Get(backend.URL + "/clean")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "payload" {
		t.Errorf("clean request disturbed: %d %q", resp.StatusCode, body)
	}

	stats := in.Stats()
	for _, rs := range stats {
		if rs.Fired != 1 {
			t.Errorf("rule %s fired %d times, want 1", rs.Name, rs.Fired)
		}
	}
}

// TestNewRejectsOutOfRangeP: New validates the plan, refusing a rule
// probability outside [0,1].
func TestNewRejectsOutOfRangeP(t *testing.T) {
	for _, p := range []float64{-0.5, 2} {
		if _, err := New(Plan{Rules: []Rule{{Name: "x", P: p, Drop: true}}}, 1); err == nil {
			t.Errorf("p = %v accepted", p)
		}
	}
	if _, err := New(Plan{Rules: []Rule{{Name: "x", P: 0.25, Drop: true}}}, 1); err != nil {
		t.Errorf("p = 0.25 rejected: %v", err)
	}
}
