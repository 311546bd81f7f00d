package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fault injector is a deterministic harness for the fleet's
// network paths: a declarative plan of faults (latency, dropped
// connections, 5xx/429 bursts, slow bodies, health-check flaps)
// applied by a seeded injector, so every robustness claim the router
// makes — retry, backoff, exclusion, re-admission, degradation, journal
// recovery — can be asserted under replayable chaos instead of
// hand-rolled one-off stubs.
//
// The injector delivers its faults in-process: RoundTripper wraps an
// http.RoundTripper, so a client's transport (the router's shard
// transport in the fleet tests) sees chaos with no proxy in between.
//
// # Determinism
//
// Faults fire from two sources, both replayable. Window rules (Skip /
// Count / Every) count matching requests per rule and fire on exact
// match ordinals — fully deterministic regardless of scheduling, which
// is what tests assert exact behaviour against. Probabilistic rules
// (P < 1) draw from one seeded RNG under a lock: a fixed seed replays
// the same decision sequence whenever requests arrive in the same
// order, which is what the chaos suites use for coverage.

// faultPlan is a declarative fault schedule: an ordered rule list
// evaluated per request. Every rule that matches contributes its faults; the
// first terminal fault (drop or synthesized status) wins and stops
// evaluation, while latency from earlier matching rules accumulates.
type faultPlan struct {
	Rules []faultRule
}

// faultRule matches a slice of traffic and names the fault to inject.
// Matching is by method, host and path prefix; the window fields
// (Skip, Count, Every, P) select which of the matching requests
// actually fault.
type faultRule struct {
	// Name labels the rule in logs, stats and injected errors.
	Name string

	// Method matches the HTTP method exactly ("" = any).
	Method string
	// Host matches the request host:port exactly ("" = any).
	Host string
	// Path matches the URL path by prefix ("" = any).
	Path string

	// Skip lets the first N matching requests through untouched before
	// the rule arms — "the 3rd submit fails" is Skip: 2.
	Skip int
	// Count bounds how many times the rule fires (0 = unlimited) — a
	// burst of exactly N faults.
	Count int
	// Every fires on every Nth armed match (0 or 1 = every match) — a
	// deterministic health-check flap is Path:"/healthz", Every:2.
	Every int
	// P fires with this probability per armed match (0 or 1 = always),
	// drawn from the injector's seeded RNG.
	P float64

	// LatencyMs delays the request before it is forwarded; JitterMs adds
	// a uniform random extra on top (seeded RNG).
	LatencyMs int
	JitterMs  int
	// Drop fails the request with a transport-level error — the client
	// sees a reset, not an HTTP answer.
	Drop bool
	// Status synthesizes this HTTP response instead of forwarding (5xx
	// outage, 429 throttle, flapping /healthz...).
	Status int
	// RetryAfterMs sets a Retry-After header on synthesized responses
	// (rounded up to whole seconds, the header's granularity).
	RetryAfterMs int
	// SlowBodyMs delays every body read chunk — a shard that answers
	// but dribbles.
	SlowBodyMs int
}

func (p faultPlan) validate() error {
	for i, r := range p.Rules {
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("faultnet: rule %d (%s): p must be in [0,1]", i, r.Name)
		}
	}
	return nil
}

// ruleStats reports one rule's activity: how many requests matched its
// selectors and how many actually faulted.
type ruleStats struct {
	Name    string
	Matched uint64
	Fired   uint64
}

// injector applies a faultPlan deterministically. One injector carries all
// per-rule counters and the seeded RNG; wrap every client's transport
// with the same injector to keep one global fault sequence.
type injector struct {
	rules []faultRule

	mu      sync.Mutex
	rng     *rand.Rand
	matched []uint64
	fired   []uint64
}

// New returns an injector for plan. The seed fixes every probabilistic
// decision: same plan, same seed, same request order — same faults.
func newInjector(plan faultPlan, seed int64) (*injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	return &injector{
		rules:   plan.Rules,
		rng:     rand.New(rand.NewSource(seed)),
		matched: make([]uint64, len(plan.Rules)),
		fired:   make([]uint64, len(plan.Rules)),
	}, nil
}

// Stats snapshots per-rule match/fire counters (chaos tests audit them
// so a "passed" run proves its faults actually fired).
func (in *injector) Stats() []ruleStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]ruleStats, len(in.rules))
	for i, r := range in.rules {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rule-%d", i)
		}
		out[i] = ruleStats{Name: name, Matched: in.matched[i], Fired: in.fired[i]}
	}
	return out
}

// decision is the merged outcome of all matching rules for one request.
type decision struct {
	latency    time.Duration
	drop       bool
	status     int
	retryAfter time.Duration
	slowBody   time.Duration
	rule       string // name of the terminal rule, for error messages
}

func (d decision) terminal() bool { return d.drop || d.status != 0 }

// decide evaluates the plan for one request. Counters and RNG advance
// under the lock, so the decision sequence is a pure function of
// (plan, seed, arrival order).
func (in *injector) decide(method, host, path string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	for i, r := range in.rules {
		if r.Method != "" && r.Method != method {
			continue
		}
		if r.Host != "" && r.Host != host {
			continue
		}
		if r.Path != "" && !strings.HasPrefix(path, r.Path) {
			continue
		}
		in.matched[i]++
		if in.matched[i] <= uint64(r.Skip) {
			continue
		}
		armed := in.matched[i] - uint64(r.Skip)
		if r.Count > 0 && in.fired[i] >= uint64(r.Count) {
			continue
		}
		if r.Every > 1 && (armed-1)%uint64(r.Every) != 0 {
			continue
		}
		if r.P > 0 && r.P < 1 && in.rng.Float64() >= r.P {
			continue
		}
		in.fired[i]++

		if r.LatencyMs > 0 || r.JitterMs > 0 {
			lat := time.Duration(r.LatencyMs) * time.Millisecond
			if r.JitterMs > 0 {
				lat += time.Duration(in.rng.Int63n(int64(r.JitterMs)+1)) * time.Millisecond
			}
			d.latency += lat
		}
		if r.SlowBodyMs > 0 && d.slowBody == 0 {
			d.slowBody = time.Duration(r.SlowBodyMs) * time.Millisecond
		}
		if r.Drop || r.Status != 0 {
			d.drop = r.Drop
			d.status = r.Status
			d.retryAfter = time.Duration(r.RetryAfterMs) * time.Millisecond
			d.rule = r.Name
			if d.rule == "" {
				d.rule = fmt.Sprintf("rule-%d", i)
			}
			break // first terminal fault wins
		}
	}
	return d
}

// droppedError is the transport-level failure injected for Drop rules;
// callers treating transport errors as retryable see exactly that.
type droppedError struct{ Rule string }

func (e *droppedError) Error() string {
	return fmt.Sprintf("faultnet: connection reset by rule %s", e.Rule)
}

// RoundTripper wraps next with the injector's plan: the in-process
// delivery mechanism, for pointing a client's transport at chaos
// without any proxy between (nil next = http.DefaultTransport).
func (in *injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &faultTransport{in: in, next: next}
}

type faultTransport struct {
	in   *injector
	next http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.decide(req.Method, req.URL.Host, req.URL.Path)
	if d.latency > 0 {
		if err := sleepCtx(req.Context(), d.latency); err != nil {
			return nil, err
		}
	}
	if d.drop {
		return nil, &droppedError{Rule: d.rule}
	}
	if d.status != 0 {
		return synthResponse(req, d), nil
	}
	resp, err := t.next.RoundTrip(req)
	if err == nil && d.slowBody > 0 {
		resp.Body = &slowBody{rc: resp.Body, delay: d.slowBody, ctx: req.Context()}
	}
	return resp, err
}

// synthResponse fabricates the faulted HTTP answer for a Status rule.
func synthResponse(req *http.Request, d decision) *http.Response {
	body := fmt.Sprintf("{\"error\":\"faultnet: injected %d by rule %s\"}\n", d.status, d.rule)
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	setRetryAfter(h, d.retryAfter)
	return &http.Response{
		StatusCode:    d.status,
		Status:        fmt.Sprintf("%d %s", d.status, http.StatusText(d.status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// setRetryAfter writes a Retry-After header, rounding up to the whole
// seconds the header speaks.
func setRetryAfter(h http.Header, d time.Duration) {
	if d <= 0 {
		return
	}
	secs := int64((d + time.Second - 1) / time.Second)
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
}

// slowBody meters reads: one injected delay per Read call.
type slowBody struct {
	rc    io.ReadCloser
	delay time.Duration
	ctx   context.Context
}

func (s *slowBody) Read(p []byte) (int, error) {
	if err := sleepCtx(s.ctx, s.delay); err != nil {
		return 0, err
	}
	return s.rc.Read(p)
}

func (s *slowBody) Close() error { return s.rc.Close() }

// sleepCtx sleeps for d, aborting early if ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestWindowRulesExactOrdinals: Skip/Count/Every fire on exact match
// ordinals, independent of seed — the determinism tests assert against.
func TestWindowRulesExactOrdinals(t *testing.T) {
	plan := faultPlan{Rules: []faultRule{
		{Name: "burst", Path: "/a", Skip: 2, Count: 3, Status: 503},
		{Name: "flap", Path: "/h", Every: 2, Status: 500},
	}}
	in, err := newInjector(plan, 1)
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
	plan := faultPlan{Rules: []faultRule{{Name: "p50", P: 0.5, Drop: true}}}
	seq := func(seed int64) string {
		in, err := newInjector(plan, seed)
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
	plan := faultPlan{Rules: []faultRule{
		{Name: "post-only", Method: "POST", Status: 500},
		{Name: "host", Host: "h1:1", Path: "/v1/", Status: 502},
	}}
	in, err := newInjector(plan, 1)
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

	plan := faultPlan{Rules: []faultRule{
		{Name: "drop", Path: "/drop", Drop: true},
		{Name: "throttle", Path: "/throttle", Status: 429, RetryAfterMs: 1500},
		{Name: "lag", Path: "/lag", LatencyMs: 30},
		{Name: "dribble", Path: "/slow", SlowBodyMs: 10},
	}}
	in, err := newInjector(plan, 7)
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
		if _, err := newInjector(faultPlan{Rules: []faultRule{{Name: "x", P: p, Drop: true}}}, 1); err == nil {
			t.Errorf("p = %v accepted", p)
		}
	}
	if _, err := newInjector(faultPlan{Rules: []faultRule{{Name: "x", P: 0.25, Drop: true}}}, 1); err != nil {
		t.Errorf("p = 0.25 rejected: %v", err)
	}
}
