// Package faultnet is a deterministic fault-injection harness for the
// fleet's network paths: a declarative Plan of faults (latency, dropped
// connections, 5xx/429 bursts, slow bodies, health-check flaps)
// applied by a seeded Injector, so every robustness claim the router
// makes — retry, backoff, exclusion, re-admission, degradation, journal
// recovery — can be asserted under replayable chaos instead of
// hand-rolled one-off stubs.
//
// The Injector delivers its faults in-process: RoundTripper wraps an
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
package faultnet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Plan is a declarative fault schedule: an ordered rule list evaluated
// per request. Every rule that matches contributes its faults; the
// first terminal fault (drop or synthesized status) wins and stops
// evaluation, while latency from earlier matching rules accumulates.
type Plan struct {
	Rules []Rule
}

// Rule matches a slice of traffic and names the fault to inject.
// Matching is by method, host and path prefix; the window fields
// (Skip, Count, Every, P) select which of the matching requests
// actually fault.
type Rule struct {
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
	// drawn from the Injector's seeded RNG.
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

func (p Plan) validate() error {
	for i, r := range p.Rules {
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("faultnet: rule %d (%s): p must be in [0,1]", i, r.Name)
		}
	}
	return nil
}

// RuleStats reports one rule's activity: how many requests matched its
// selectors and how many actually faulted.
type RuleStats struct {
	Name    string
	Matched uint64
	Fired   uint64
}

// Injector applies a Plan deterministically. One Injector carries all
// per-rule counters and the seeded RNG; wrap every client's transport
// with the same Injector to keep one global fault sequence.
type Injector struct {
	rules []Rule

	mu      sync.Mutex
	rng     *rand.Rand
	matched []uint64
	fired   []uint64
}

// New returns an Injector for plan. The seed fixes every probabilistic
// decision: same plan, same seed, same request order — same faults.
func New(plan Plan, seed int64) (*Injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	return &Injector{
		rules:   plan.Rules,
		rng:     rand.New(rand.NewSource(seed)),
		matched: make([]uint64, len(plan.Rules)),
		fired:   make([]uint64, len(plan.Rules)),
	}, nil
}

// Stats snapshots per-rule match/fire counters (chaos tests audit them
// so a "passed" run proves its faults actually fired).
func (in *Injector) Stats() []RuleStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]RuleStats, len(in.rules))
	for i, r := range in.rules {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rule-%d", i)
		}
		out[i] = RuleStats{Name: name, Matched: in.matched[i], Fired: in.fired[i]}
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
func (in *Injector) decide(method, host, path string) decision {
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

// DroppedError is the transport-level failure injected for Drop rules;
// callers treating transport errors as retryable see exactly that.
type DroppedError struct{ Rule string }

func (e *DroppedError) Error() string {
	return fmt.Sprintf("faultnet: connection reset by rule %s", e.Rule)
}

// RoundTripper wraps next with the injector's plan: the in-process
// delivery mechanism, for pointing a client's transport at chaos
// without any proxy between (nil next = http.DefaultTransport).
func (in *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &faultTransport{in: in, next: next}
}

type faultTransport struct {
	in   *Injector
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
		return nil, &DroppedError{Rule: d.rule}
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
