package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
	"allarm/internal/server"
)

// shard is one allarm-serve backend: its HTTP client, its health state
// and its per-shard counters. All request plumbing — bearer
// credentials, health bookkeeping, response decoding — lives here so
// the router's scatter/gather logic reads as protocol, not transport.
// Retry policy lives on the Router (it owns the backoff schedule and
// its jitter source).
type shard struct {
	name   string // base URL, e.g. http://10.0.0.7:8347
	token  string // bearer forwarded on every shard request
	client *http.Client

	// Health state, written by the router's health loop and read by the
	// ring's alive predicate.
	mu             sync.Mutex
	healthy        bool
	fails          int       // consecutive failed probes
	unhealthySince time.Time // zero while healthy

	// Counters (metrics.go renders them).
	requests       atomic.Uint64
	retries        atomic.Uint64
	unhealthySpans atomic.Uint64 // completed unhealthy intervals
	unhealthyNs    atomic.Uint64 // total time spent excluded
	jobsAssigned   atomic.Uint64

	versionMu sync.Mutex
	version   string // last /v1/version answer (build-skew check)
}

// newShard builds a shard handle. transport may be nil (the default
// transport); tests and chaos harnesses inject a fault-injecting RoundTripper
// here to put simulated network failures between router and fleet.
func newShard(name, token string, transport http.RoundTripper) *shard {
	return &shard{
		name:  strings.TrimRight(name, "/"),
		token: token,
		// No Client.Timeout: SSE streams are long-lived by design.
		// Bounded calls pass a context deadline instead.
		client:  &http.Client{Transport: transport},
		healthy: true, // optimistic until the first probe says otherwise
	}
}

// isHealthy is the ring's alive predicate.
func (sh *shard) isHealthy() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.healthy
}

// probeResult records one health-poll outcome, flipping the shard's
// state after failAfter consecutive failures and re-admitting it on the
// first success. It returns the transition ("excluded", "readmitted" or
// "") for logging.
func (sh *shard) probeResult(ok bool, now time.Time) string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ok {
		sh.fails = 0
		if !sh.healthy {
			sh.healthy = true
			sh.unhealthySpans.Add(1)
			sh.unhealthyNs.Add(uint64(now.Sub(sh.unhealthySince).Nanoseconds()))
			sh.unhealthySince = time.Time{}
			return "readmitted"
		}
		return ""
	}
	sh.fails++
	if sh.healthy && sh.fails >= failAfter {
		sh.healthy = false
		sh.unhealthySince = now
		return "excluded"
	}
	return ""
}

// unhealthyTotal returns completed-interval time plus the current open
// interval, so /metrics reflects an ongoing outage.
func (sh *shard) unhealthyTotal(now time.Time) (spans uint64, dur time.Duration) {
	spans = sh.unhealthySpans.Load()
	dur = time.Duration(sh.unhealthyNs.Load())
	sh.mu.Lock()
	if !sh.healthy && !sh.unhealthySince.IsZero() {
		dur += now.Sub(sh.unhealthySince)
	}
	sh.mu.Unlock()
	return spans, dur
}

// do performs one HTTP request against the shard with the bearer
// credential attached; ctype labels a non-nil body. Callers bound it
// with a context.
func (sh *shard) do(ctx context.Context, method, path, ctype string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.name+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if sh.token != "" {
		req.Header.Set("Authorization", "Bearer "+sh.token)
	}
	// Forward the correlation id so the shard's request log and timeline
	// carry the router-minted id for the originating client call.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	sh.requests.Add(1)
	return sh.client.Do(req)
}

// httpError is a non-2xx shard answer, carrying the status code so
// callers can distinguish client errors (no retry) from server ones,
// and the parsed Retry-After hint on throttled (429) answers so the
// retry schedule can honor the shard's own pacing.
type httpError struct {
	status     int
	body       string
	retryAfter time.Duration // 0 when the answer carried no usable hint
}

func (e *httpError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, strings.TrimSpace(e.body))
}

// newHTTPError captures a non-2xx response, including its Retry-After.
func newHTTPError(resp *http.Response, body []byte) *httpError {
	return &httpError{
		status:     resp.StatusCode,
		body:       string(body),
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}

// parseRetryAfter reads a Retry-After header value: delta-seconds or an
// HTTP-date. Unparseable or past values yield 0 (no hint).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// doJSON performs a bounded request and decodes a 2xx JSON answer into
// out (out may be nil to discard).
func (sh *shard) doJSON(ctx context.Context, method, path string, body []byte, timeout time.Duration, out any) error {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := sh.do(cctx, method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return newHTTPError(resp, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return nil
}

// retryable reports whether an error is worth another attempt:
// transport errors and 5xx are, 429 is (the shard asked us to slow
// down, not to stop), any other 4xx is not (the request itself is
// wrong).
func retryable(err error) bool {
	var he *httpError
	if !errors.As(err, &he) {
		return true
	}
	if he.status == http.StatusTooManyRequests {
		return true
	}
	return he.status < 400 || he.status >= 500
}

// submitSweep posts a sub-sweep and returns the shard's sweep id.
func (sh *shard) submitSweep(ctx context.Context, req *server.SweepRequest, timeout time.Duration) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var resp server.SubmitResponse
	if err := sh.doJSON(ctx, http.MethodPost, "/v1/sweeps", body, timeout, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// fetchTimeline pulls a shard sweep's per-job timeline for the
// router's fleet-wide merge.
func (sh *shard) fetchTimeline(ctx context.Context, id string, timeout time.Duration) (obs.TimelineView, error) {
	var tv obs.TimelineView
	err := sh.doJSON(ctx, http.MethodGet, "/v1/sweeps/"+id+"/timeline", nil, timeout, &tv)
	return tv, err
}

// sweepStatus fetches a shard sweep's status view.
func (sh *shard) sweepStatus(ctx context.Context, id string, timeout time.Duration) (server.SweepView, error) {
	var v server.SweepView
	err := sh.doJSON(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, timeout, &v)
	return v, err
}

// uploadTrace posts raw trace bytes to a shard that answered "unknown
// trace".
func (sh *shard) uploadTrace(ctx context.Context, data []byte, timeout time.Duration) error {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := sh.do(cctx, http.MethodPost, "/v1/traces", "application/octet-stream", data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return newHTTPError(resp, body)
	}
	return nil
}

// fetchRecords downloads a shard sweep's results as NDJSON and decodes
// them into Records — the gather half of the merge seam. A sweep still
// running answers 409, which the router reads as "watch it first".
// allarm.ReadRecords accepts a line only if it is byte for byte what
// this build's NDJSONEmitter writes for the record read from it, so the
// router re-encodes the decoded records to the shard's bytes, which is
// what makes gathered output byte-equal to a single-node run; any other
// body fails the fetch.
func (sh *shard) fetchRecords(ctx context.Context, id string, timeout time.Duration) ([]allarm.Record, error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := sh.do(cctx, http.MethodGet, "/v1/sweeps/"+id+"/results?format=ndjson", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, newHTTPError(resp, body)
	}
	return allarm.ReadRecords(resp.Body)
}

// sseEvent is one parsed frame of a shard's /events stream.
type sseEvent struct {
	Type string
	Data []byte
}

// streamEvents subscribes to a shard sweep's SSE progress stream,
// invoking onEvent per frame until the stream ends or ctx is
// cancelled. The server replays full history to new subscribers, so a
// reconnect re-delivers earlier frames; consumers must be idempotent.
// The stream is advisory and opened only for a sub-sweep still running
// at its first results ask: the router runs it beside the status poll,
// which owns the completion decision — a silently hung stream can never
// stall a gather.
func (sh *shard) streamEvents(ctx context.Context, id string, onEvent func(sseEvent)) error {
	resp, err := sh.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/events", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return newHTTPError(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.Type != "" && ev.Data != nil {
				onEvent(ev)
			}
			ev = sseEvent{}
		}
	}
	return sc.Err()
}
