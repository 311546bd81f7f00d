package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	allarm "allarm"
)

// newTestServer starts the daemon behind an httptest server.
func newTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// submit posts a sweep and returns its id.
func submit(t *testing.T, base string, req SweepRequest) SubmitResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitDone polls the status endpoint until the sweep is final.
func waitDone(t *testing.T, base, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, base+"/v1/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		var v SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone || v.Status == StatusCheckpointed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return SweepView{}
}

func metricsOf(t *testing.T, base string) Metrics {
	t.Helper()
	_, body := get(t, base+"/metrics")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// tinySweepRequest is a fast two-job sweep (one benchmark, two
// policies) at reduced scale.
func tinySweepRequest() SweepRequest {
	return SweepRequest{
		Benchmarks: []string{"ocean-cont"},
		Policies:   []string{"baseline", "allarm"},
		Config:     &ConfigOverrides{Threads: 4, AccessesPerThread: 400},
	}
}

// tinySweepDirect is the library-side equivalent of tinySweepRequest —
// the sweep a CLI user would run locally.
func tinySweepDirect() *allarm.Sweep {
	cfg := allarm.ExperimentConfig()
	cfg.Threads = 4
	cfg.AccessesPerThread = 400
	return allarm.NewSweep(allarm.Job{Benchmark: "ocean-cont", Config: cfg}).
		CrossPolicies(allarm.Baseline, allarm.ALLARM)
}

// TestResultsByteIdenticalToRunSweep is the acceptance criterion:
// results fetched from the service, in every format, are byte-identical
// to running the same sweep locally and rendering it with the same
// emitter.
func TestResultsByteIdenticalToRunSweep(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2})
	sr := submit(t, base, tinySweepRequest())
	v := waitDone(t, base, sr.ID)
	if v.Status != StatusDone || v.Done != 2 {
		t.Fatalf("sweep state: %+v", v)
	}
	for _, jv := range v.Jobs {
		if jv.Status != JobDone || jv.Error != "" {
			t.Fatalf("job state: %+v", jv)
		}
	}

	direct, err := allarm.RunSweep(context.Background(), tinySweepDirect())
	if err != nil {
		t.Fatal(err)
	}
	if err := allarm.FirstError(direct); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		format  string
		accept  string
		emitter allarm.Emitter
		ctype   string
	}{
		{"json", "", allarm.JSONEmitter{Indent: true}, "application/json"},
		{"csv", "", allarm.CSVEmitter{}, "text/csv; charset=utf-8"},
		{"ndjson", "", allarm.NDJSONEmitter{}, "application/x-ndjson"},
		{"table", "", &allarm.TableEmitter{}, "text/plain; charset=utf-8"},
		{"", "text/csv", allarm.CSVEmitter{}, "text/csv; charset=utf-8"},
		{"", "application/x-ndjson", allarm.NDJSONEmitter{}, "application/x-ndjson"},
	}
	for _, c := range cases {
		url := base + "/v1/sweeps/" + sr.ID + "/results"
		if c.format != "" {
			url += "?format=" + c.format
		}
		var hdr []string
		if c.accept != "" {
			hdr = []string{"Accept", c.accept}
		}
		resp, served := get(t, url, hdr...)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results %q/%q: status %d", c.format, c.accept, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("results %q/%q: content type %q, want %q", c.format, c.accept, got, c.ctype)
		}
		var want bytes.Buffer
		if err := c.emitter.Emit(&want, direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want.Bytes()) {
			t.Errorf("results %q/%q not byte-identical to local emit:\nserved:\n%s\nlocal:\n%s",
				c.format, c.accept, served, want.Bytes())
		}
	}

	m := metricsOf(t, base)
	if m.JobsRun != 2 || m.CacheMisses != 2 || m.CacheEntries != 2 {
		t.Errorf("metrics after first sweep: %+v", m)
	}
}

// TestConcurrentIdenticalSweepsRunOnce is the singleflight acceptance
// criterion: two identical concurrent submissions simulate once, and a
// later identical submission is a pure cache hit — all observable via
// /metrics.
func TestConcurrentIdenticalSweepsRunOnce(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	s, base := newTestServer(t, Options{
		Workers: 4,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			runs.Add(1)
			<-gate
			return &allarm.Result{Benchmark: j.WorkloadName(), PolicyUsed: j.Config.Policy, RuntimeNs: 42, Events: 7}, nil
		},
	})
	req := SweepRequest{
		Benchmarks: []string{"barnes"},
		Policies:   []string{"baseline"},
		Config:     &ConfigOverrides{Threads: 4, AccessesPerThread: 100},
	}
	a := submit(t, base, req)
	b := submit(t, base, req)

	// Both sweeps must be blocked on the same single flight before the
	// gate opens: exactly one simulation started, the other joined it.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.coalesced.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d simulations started before gate, want 1", got)
	}
	close(gate)

	waitDone(t, base, a.ID)
	waitDone(t, base, b.ID)
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d simulations ran for two identical sweeps, want 1", got)
	}
	m := metricsOf(t, base)
	if m.JobsRun != 1 || m.CacheMisses != 1 || m.InflightCoalesced != 1 {
		t.Errorf("metrics after coalesced sweeps: %+v", m)
	}

	// A third identical sweep after completion never touches a worker.
	c := submit(t, base, req)
	waitDone(t, base, c.ID)
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache-hit sweep re-ran the simulation (%d runs)", got)
	}
	m = metricsOf(t, base)
	if m.CacheHits < 1 {
		t.Errorf("cache hit not counted: %+v", m)
	}
	if m.SimEventsTotal != 7 {
		t.Errorf("sim events total %d, want 7", m.SimEventsTotal)
	}
}

// TestCacheLRUBound: with capacity 1, the second distinct job evicts
// the first, so re-running the first misses again.
func TestCacheLRUBound(t *testing.T) {
	var runs atomic.Int64
	_, base := newTestServer(t, Options{
		Workers:      1,
		CacheEntries: 1,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			runs.Add(1)
			return &allarm.Result{Benchmark: j.WorkloadName(), PolicyUsed: j.Config.Policy}, nil
		},
	})
	one := SweepRequest{Benchmarks: []string{"barnes"}, Config: &ConfigOverrides{Threads: 4, AccessesPerThread: 100}}
	two := SweepRequest{Benchmarks: []string{"x264"}, Config: &ConfigOverrides{Threads: 4, AccessesPerThread: 100}}
	waitDone(t, base, submit(t, base, one).ID)
	waitDone(t, base, submit(t, base, two).ID)
	waitDone(t, base, submit(t, base, one).ID)
	if got := runs.Load(); got != 3 {
		t.Fatalf("%d runs, want 3 (capacity-1 LRU must evict)", got)
	}
	m := metricsOf(t, base)
	if m.CacheEntries != 1 || m.CacheCapacity != 1 || m.CacheMisses != 3 {
		t.Errorf("metrics: %+v", m)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	resp, body := get(t, base+"/v1/policies")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policies: %d", resp.StatusCode)
	}
	var pols []allarm.PolicyInfo
	if err := json.Unmarshal(body, &pols); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]allarm.PolicyInfo)
	for _, p := range pols {
		names[p.Name] = p
	}
	for _, want := range []string{"baseline", "allarm", "allarm-hyst"} {
		p, ok := names[want]
		if !ok {
			t.Errorf("policy %q missing from discovery", want)
			continue
		}
		if !p.Builtin || p.Description == "" {
			t.Errorf("policy %q: %+v, want builtin with description", want, p)
		}
	}

	resp, body = get(t, base+"/v1/benchmarks")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmarks: %d", resp.StatusCode)
	}
	var benches []allarm.BenchmarkInfo
	if err := json.Unmarshal(body, &benches); err != nil {
		t.Fatal(err)
	}
	if len(benches) != len(allarm.Benchmarks()) {
		t.Fatalf("%d benchmarks, want %d", len(benches), len(allarm.Benchmarks()))
	}
	for _, b := range benches {
		if b.Name == "" || b.PrivateBytes <= 0 || b.SharedBytes <= 0 {
			t.Errorf("benchmark info incomplete: %+v", b)
		}
	}
}

func TestTraceUploadAndSweep(t *testing.T) {
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "upload", Threads: 2, Key: "upload-v1",
		Stream: func(thread int, seed uint64) allarm.Stream {
			n := 0
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if n >= 64 {
					return allarm.Access{}, false
				}
				n++
				return allarm.Access{VAddr: uint64(0x1000*thread + 64*n), Write: n%3 == 0, Think: allarm.Nanosecond}, true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := allarm.CaptureTrace(&trace, wl, 1); err != nil {
		t.Fatal(err)
	}
	traceBytes := trace.Bytes()

	_, base := newTestServer(t, Options{Workers: 2})
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Threads != 2 || tr.Workload != "trace:"+tr.ID {
		t.Fatalf("trace response: %+v", tr)
	}

	// Uploads are content-addressed: identical bytes, identical id.
	resp2, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var tr2 TraceResponse
	if err := json.Unmarshal(body2, &tr2); err != nil {
		t.Fatal(err)
	}
	if tr2.ID != tr.ID {
		t.Fatalf("re-upload changed id: %s vs %s", tr2.ID, tr.ID)
	}

	sr := submit(t, base, SweepRequest{
		Workloads: []string{tr.Workload},
		Policies:  []string{"baseline", "allarm"},
	})
	v := waitDone(t, base, sr.ID)
	if v.Status != StatusDone {
		t.Fatalf("trace sweep: %+v", v)
	}
	_, served := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=csv")

	// The served rows must equal a local replay of the same trace under
	// the same (hash-derived) name.
	local, err := allarm.ReadTraceNamed(bytes.NewReader(traceBytes), tr.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := allarm.RunSweep(context.Background(),
		allarm.NewSweep(allarm.Job{Workload: local, Config: allarm.ExperimentConfig()}).
			CrossPolicies(allarm.Baseline, allarm.ALLARM))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := (allarm.CSVEmitter{}).Emit(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Errorf("trace sweep results differ from local replay:\nserved:\n%s\nlocal:\n%s", served, want.Bytes())
	}
}

// TestTraceLargerThanMemoryFailsJob: an uploaded trace whose placement
// section declares one page more than the default machine's 2 GiB of
// DRAM fails its job with an error; the daemon keeps serving.
func TestTraceLargerThanMemoryFailsJob(t *testing.T) {
	const pages = 16*128<<20/4096 + 1
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "too-big", Threads: 1,
		Stream: func(int, uint64) allarm.Stream {
			return allarm.StreamFunc(func() (allarm.Access, bool) { return allarm.Access{}, false })
		},
		Pages: func(fn func(page uint64, thread int)) {
			for i := uint64(0); i < pages; i++ {
				fn(i*4096, 0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := allarm.CaptureTrace(&trace, wl, 1); err != nil {
		t.Fatal(err)
	}

	_, base := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", &trace)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}

	v := waitDone(t, base, submit(t, base, SweepRequest{
		Workloads: []string{tr.Workload},
		Policies:  []string{"baseline"},
	}).ID)
	if len(v.Jobs) != 1 || v.Jobs[0].Status != JobError ||
		!strings.Contains(v.Jobs[0].Error, "physical memory exhausted") {
		t.Fatalf("oversized trace: %+v", v)
	}

	// The daemon survived and still runs simulations.
	v = waitDone(t, base, submit(t, base, tinySweepRequest()).ID)
	for _, j := range v.Jobs {
		if j.Status != JobDone {
			t.Fatalf("sweep after the failed job: %+v", v)
		}
	}
}

func TestSSEEvents(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2})
	sr := submit(t, base, tinySweepRequest())
	// Subscribing late is fine: the stream replays history, then ends
	// once the sweep is final.
	waitDone(t, base, sr.ID)
	resp, err := http.Get(base + "/v1/sweeps/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	stream, err := io.ReadAll(resp.Body) // returns once the stream closes
	if err != nil {
		t.Fatal(err)
	}
	text := string(stream)
	for _, want := range []string{
		"event: sweep", "event: job",
		`"status":"running"`, `"status":"done"`,
		fmt.Sprintf(`"total":%d`, 2),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, text)
		}
	}
	// The stream must end with the terminal sweep event.
	if !strings.Contains(text[strings.LastIndex(text, "event: sweep"):], `"status":"done"`) {
		t.Errorf("SSE stream does not end with the final sweep event:\n%s", text)
	}
}

func TestResultsConflictWhileRunning(t *testing.T) {
	gate := make(chan struct{})
	_, base := newTestServer(t, Options{
		Workers: 1,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			<-gate
			return &allarm.Result{Benchmark: j.WorkloadName()}, nil
		},
	})
	sr := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	resp, _ := get(t, base+"/v1/sweeps/"+sr.ID+"/results")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results while running: %d, want 409", resp.StatusCode)
	}
	close(gate)
	waitDone(t, base, sr.ID)
	resp, _ = get(t, base+"/v1/sweeps/"+sr.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results when done: %d", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})
	cases := []SweepRequest{
		{},                                     // empty
		{Benchmarks: []string{"no-such"}},      // unknown benchmark
		{Workloads: []string{"trace:missing"}}, // unknown trace
		{Workloads: []string{"bogus"}},         // malformed spec
		{Benchmarks: []string{"barnes"}, Policies: []string{"no-such"}},
		{Benchmarks: []string{"barnes"}, PFKiB: []int{-3}},
	}
	for i, req := range cases {
		resp, body := postJSON(t, base+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	resp, _ := get(t, base+"/v1/sweeps/no-such-id")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: %d, want 404", resp.StatusCode)
	}
}

// TestResultsUnknownFormat: a bad ?format= is rejected like every other
// invalid request field, not silently served as JSON.
func TestResultsUnknownFormat(t *testing.T) {
	_, base := newTestServer(t, Options{
		Workers: 1,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			return &allarm.Result{Benchmark: j.WorkloadName()}, nil
		},
	})
	sr := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	waitDone(t, base, sr.ID)
	resp, body := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=cvs")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestDrainCheckpointsPartialResults(t *testing.T) {
	gate := make(chan struct{})
	s, base := newTestServer(t, Options{
		Workers: 1,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			<-gate
			return &allarm.Result{Benchmark: j.WorkloadName(), PolicyUsed: j.Config.Policy, RuntimeNs: 1}, nil
		},
	})
	// Two jobs, one worker: job 0 blocks on the gate, job 1 never starts.
	sr := submit(t, base, tinySweepRequest())

	// Expired grace: Drain cancels immediately; the in-flight job then
	// completes (simulations aren't interruptible mid-run) and the rest
	// is checkpointed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	s.Drain(ctx)

	v := waitDone(t, base, sr.ID)
	if v.Status != StatusCheckpointed {
		t.Fatalf("status %q, want %q", v.Status, StatusCheckpointed)
	}

	// Partial results stay fetchable: the finished job has metrics, the
	// unreached one carries the cancellation error.
	resp, body := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=ndjson")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpointed results: %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d result lines, want 2:\n%s", len(lines), body)
	}
	if !strings.Contains(string(body), context.Canceled.Error()) {
		t.Errorf("no cancellation error in partial results:\n%s", body)
	}

	// Draining refuses new work and reports itself on /healthz.
	resp, _ = postJSON(t, base+"/v1/sweeps", tinySweepRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
	_, hz := get(t, base+"/healthz")
	if !strings.Contains(string(hz), "draining") {
		t.Errorf("healthz while draining: %s", hz)
	}
	m := metricsOf(t, base)
	if m.SweepsCheckpointed != 1 || !m.Draining {
		t.Errorf("metrics after drain: %+v", m)
	}
}

// syncBuffer is a bytes.Buffer safe for a logger's concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDrainLogCountsDoneJobs: the drain's "checkpointed" log line counts
// only jobs that finished, not the cancelled ones that are also terminal.
func TestDrainLogCountsDoneJobs(t *testing.T) {
	var logs syncBuffer
	s, base := newTestServer(t, Options{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(&logs, nil)),
		RunJob: func(ctx context.Context, _ allarm.Job) (*allarm.Result, error) {
			<-ctx.Done() // gated until the drain cancels it
			return nil, ctx.Err()
		},
	})
	sr := submit(t, base, tinySweepRequest())
	deadline := time.Now().Add(10 * time.Second)
	for running := 0; running < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 jobs started", running)
		}
		time.Sleep(time.Millisecond)
		var v SweepView
		_, body := get(t, base+"/v1/sweeps/"+sr.ID)
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		running = 0
		for _, j := range v.Jobs {
			if j.Status == JobRunning {
				running++
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no grace: cancel both jobs now
	s.Drain(ctx)
	if v := waitDone(t, base, sr.ID); v.Status != StatusCheckpointed {
		t.Fatalf("status %q, want %q", v.Status, StatusCheckpointed)
	}
	want := "sweep " + sr.ID + ": checkpointed with 0/2 jobs done"
	for !strings.Contains(logs.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("log lacks %q:\n%s", want, logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestListSweeps: the listing returns every sweep in submission order.
func TestListSweeps(t *testing.T) {
	_, base := newTestServer(t, Options{
		Workers: 1,
		RunJob: func(_ context.Context, j allarm.Job) (*allarm.Result, error) {
			return &allarm.Result{Benchmark: j.WorkloadName()}, nil
		},
	})
	a := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	b := submit(t, base, SweepRequest{Benchmarks: []string{"x264"}})
	waitDone(t, base, a.ID)
	waitDone(t, base, b.ID)
	_, body := get(t, base+"/v1/sweeps")
	var views []SweepView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].ID != a.ID || views[1].ID != b.ID {
		t.Fatalf("listing: %+v", views)
	}
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }

// TestLogfSkipsDroppedLines checks that Logf writes an info line as it
// always did, and formats nothing when the logger drops info lines.
func TestLogfSkipsDroppedLines(t *testing.T) {
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	for _, tc := range []struct {
		level      slog.Level
		want       string
		formatting int
	}{
		{slog.LevelInfo, `level=INFO msg="sweep s1: 3 jobs"` + "\n", 1},
		{slog.LevelWarn, "", 0},
	} {
		var buf bytes.Buffer
		calls := 0
		arg := stringerFunc(func() string { calls++; return "3 jobs" })
		h := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: tc.level, ReplaceAttr: noTime})
		(&Front{cfg: FrontConfig{Logger: slog.New(h)}}).Logf("sweep %s: %v", "s1", arg)
		if buf.String() != tc.want || calls != tc.formatting {
			t.Errorf("level %v: logged %q with %d formatting calls, want %q with %d",
				tc.level, buf.String(), calls, tc.want, tc.formatting)
		}
	}
}
