package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	allarm "allarm"
	"allarm/internal/server"
)

// stubResult is the deterministic fake simulation every fleet test
// injects: a pure function of the job key, so any two nodes (or runs)
// given the same job produce the same result — exactly the determinism
// contract the real simulator provides, at zero cost.
func stubResult(j allarm.Job) *allarm.Result {
	h := hash64(j.Key())
	return &allarm.Result{
		Benchmark:   j.WorkloadName(),
		PolicyUsed:  j.Config.Policy,
		RuntimeNs:   float64(h%100000) + 0.5,
		Accesses:    h % 977,
		Events:      h % 31,
		PFAllocs:    h % 13,
		NoCEnergyPJ: float64(h%101) / 8.0,
	}
}

// testShard is one allarm-serve backend under test: its daemon, its
// HTTP listener, a kill switch and a per-shard simulation counter.
type testShard struct {
	srv  *server.Server
	ts   *httptest.Server
	url  string
	runs atomic.Int64
	dead atomic.Bool // when set, every request answers 500
	// eventsDown, when set, makes GET /v1/sweeps/{id}/events answer 500.
	eventsDown atomic.Bool
	gate       chan struct{} // nil = run immediately; else RunJob blocks on it
	// holdResults, when set, holds each GET …/results until the shard
	// sweep is final, so the ask can never meet a still-running sweep.
	holdResults atomic.Bool

	logMu  sync.Mutex
	log    []string     // "kind status" per answered request, in answer order
	active atomic.Int64 // requests being answered
}

// newTestShard starts one backend. opts.RunJob is overridden with the
// counting stub.
func newTestShard(t *testing.T, opts server.Options) *testShard {
	t.Helper()
	sh := &testShard{}
	opts.RunJob = func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
		if sh.gate != nil {
			select {
			case <-sh.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		sh.runs.Add(1)
		return stubResult(j), nil
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	sh.srv = srv
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sh.active.Add(1)
		defer func() {
			sh.logMu.Lock()
			sh.log = append(sh.log, fmt.Sprintf("%s %d", requestKind(r), rw.code))
			sh.logMu.Unlock()
			sh.active.Add(-1)
		}()
		if sh.dead.Load() || (sh.eventsDown.Load() && strings.HasSuffix(r.URL.Path, "/events")) {
			http.Error(rw, "shard down", http.StatusInternalServerError)
			return
		}
		if sh.holdResults.Load() && requestKind(r) == "results" {
			awaitFinal(inner, strings.TrimSuffix(r.URL.Path, "/results"))
		}
		inner.ServeHTTP(rw, r)
	}))
	sh.url = sh.ts.URL
	t.Cleanup(func() {
		sh.ts.Close()
		srv.Close()
	})
	return sh
}

// statusWriter records the status code a handler answers with; it
// passes Flush through for the SSE stream.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// requestKind names a shard request by what it asks for: submit,
// status, results, events, or its method and path.
func requestKind(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sweeps/")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
		return "submit"
	case ok && r.Method == http.MethodGet && !strings.Contains(rest, "/"):
		return "status"
	case ok && r.Method == http.MethodGet && strings.HasSuffix(rest, "/results"):
		return "results"
	case ok && r.Method == http.MethodGet && strings.HasSuffix(rest, "/events"):
		return "events"
	}
	return r.Method + " " + r.URL.Path
}

// awaitFinal polls a shard sweep's status through the daemon's own
// handler until the sweep is final.
func awaitFinal(inner http.Handler, statusPath string) {
	for {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, statusPath, nil))
		var v server.SweepView
		if json.Unmarshal(rec.Body.Bytes(), &v) != nil || v.Status == server.StatusDone || v.Status == server.StatusCheckpointed {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// takeLog returns the requests answered since the last call and clears
// the log.
func (sh *testShard) takeLog() []string {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	out := sh.log
	sh.log = nil
	return out
}

// kill makes the shard answer 500 to everything and severs open
// connections (in-flight SSE streams included) — the closest an
// httptest server gets to a process crash.
func (sh *testShard) kill() {
	sh.dead.Store(true)
	sh.ts.CloseClientConnections()
}

// newTestFleet starts n shards and a router over them.
func newTestFleet(t *testing.T, n int, shardOpts server.Options, ropts Options) (*Router, string, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newTestShard(t, shardOpts)
		urls[i] = shards[i].url
	}
	ropts.Shards = urls
	if ropts.attempts == 0 {
		ropts.attempts = 2
	}
	if ropts.retryBackoff == 0 {
		ropts.retryBackoff = 5 * time.Millisecond
	}
	if ropts.healthInterval == 0 {
		// Tests control health transitions explicitly; a long default
		// interval keeps the loop from flipping state mid-assertion.
		ropts.healthInterval = time.Hour
	}
	rt, err := New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts.URL, shards
}

func postJSON(t *testing.T, url string, body any, header ...string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

func submit(t *testing.T, base string, req server.SweepRequest, header ...string) server.SubmitResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sweeps", req, header...)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitFleetDone polls the router until the sweep is final.
func waitFleetDone(t *testing.T, base, id string, header ...string) server.SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, base+"/v1/sweeps/"+id, header...)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == server.StatusDone || v.Status == server.StatusDegraded {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("fleet sweep did not finish in time")
	return server.SweepView{}
}

func totalRuns(shards []*testShard) int64 {
	var n int64
	for _, sh := range shards {
		n += sh.runs.Load()
	}
	return n
}

// bigRequest expands to 24 jobs — enough that both shards of a pair get
// work with near-certainty under any ring layout.
func bigRequest() server.SweepRequest {
	return server.SweepRequest{
		Benchmarks: allarm.Benchmarks(), // 8
		Policies:   []string{"baseline", "allarm", "allarm-hyst"},
		Config:     &server.ConfigOverrides{Threads: 4, AccessesPerThread: 100},
	}
}

// TestFleetByteIdenticalToSingleNode is the tentpole acceptance
// criterion: the same request through a two-shard fleet and through one
// standalone daemon renders byte-identical results in every format.
func TestFleetByteIdenticalToSingleNode(t *testing.T) {
	_, fleetBase, shards := newTestFleet(t, 2, server.Options{Workers: 4}, Options{})
	single := newTestShard(t, server.Options{Workers: 4})

	req := bigRequest()
	fleetID := submit(t, fleetBase, req)
	singleID := submit(t, single.url, req)
	fv := waitFleetDone(t, fleetBase, fleetID.ID)
	if fv.Status != server.StatusDone {
		t.Fatalf("fleet sweep status %q, want done", fv.Status)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, _ := get(t, single.url+"/v1/sweeps/"+singleID.ID+"/results?format=ndjson")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single-node sweep did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both shards must actually have served part of the sweep — a
	// gather that degenerates to one node proves nothing.
	for i, sh := range shards {
		if sh.runs.Load() == 0 {
			t.Fatalf("shard %d ran no jobs; placement degenerated (runs: %d/%d)",
				i, shards[0].runs.Load(), shards[1].runs.Load())
		}
	}
	if got := totalRuns(shards); got != 24 {
		t.Fatalf("fleet ran %d simulations, want 24", got)
	}

	for _, format := range []string{"json", "ndjson", "csv", "table"} {
		_, gathered := get(t, fleetBase+"/v1/sweeps/"+fleetID.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+singleID.ID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: gathered output differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}

	// The finished stream replays the full history to a late subscriber:
	// job events for every job (with global indices and shard names) and
	// a final sweep event.
	resp, events := get(t, fleetBase+"/v1/sweeps/"+fleetID.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(events), `"status": "done"`) && !strings.Contains(string(events), `"status":"done"`) {
		t.Errorf("event replay missing final sweep event:\n%s", events)
	}
	seen := make(map[int]bool)
	for _, line := range strings.Split(string(events), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var je server.JobEvent
			if json.Unmarshal([]byte(data), &je) == nil && je.Shard != "" {
				seen[je.Index] = true
			}
		}
	}
	if len(seen) != 24 {
		t.Errorf("event replay covered %d/24 job indices", len(seen))
	}
}

// TestFleetResubmitZeroResimulations: a re-submitted sweep is answered
// entirely from the shards' content-addressed caches. Placement by
// Job.Key guarantees every job revisits the shard that cached it.
func TestFleetResubmitZeroResimulations(t *testing.T) {
	_, base, shards := newTestFleet(t, 3, server.Options{Workers: 4}, Options{})
	req := bigRequest()

	first := submit(t, base, req)
	waitFleetDone(t, base, first.ID)
	ran := totalRuns(shards)
	if ran != 24 {
		t.Fatalf("first submission ran %d simulations, want 24", ran)
	}

	second := submit(t, base, req)
	v := waitFleetDone(t, base, second.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("resubmit status %q, want done", v.Status)
	}
	if got := totalRuns(shards); got != ran {
		t.Fatalf("resubmit re-ran simulations: %d -> %d", ran, got)
	}

	// Overlapping sweep: only genuinely new jobs simulate.
	req.PFKiB = []int{64} // same grid at an explicit non-default coverage
	third := submit(t, base, req)
	waitFleetDone(t, base, third.ID)
	if got := totalRuns(shards); got != ran+24 {
		t.Fatalf("overlapping sweep ran %d new simulations, want 24", got-ran)
	}
}

// TestFleetCachedGatherRequests: a resubmitted sweep whose every job is
// cached costs each shard exactly one submit and one results fetch — no
// event stream and no status poll. Each shard holds the results ask
// until its sweep is final, so the count does not hang on timing.
func TestFleetCachedGatherRequests(t *testing.T) {
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 4}, Options{})
	req := bigRequest()
	waitFleetDone(t, base, submit(t, base, req).ID)
	ran := totalRuns(shards)
	for _, sh := range shards {
		// A stream the first gather opened may still be closing.
		deadline := time.Now().Add(10 * time.Second)
		for sh.active.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("shard requests of the first sweep never finished")
			}
			time.Sleep(time.Millisecond)
		}
		sh.holdResults.Store(true)
		sh.takeLog()
	}

	v := waitFleetDone(t, base, submit(t, base, req).ID)
	if v.Status != server.StatusDone {
		t.Fatalf("resubmit status %q, want done", v.Status)
	}
	if got := totalRuns(shards); got != ran {
		t.Fatalf("resubmit re-ran simulations: %d -> %d", ran, got)
	}
	for i, sh := range shards {
		if got, want := strings.Join(sh.takeLog(), ", "), "submit 202, results 200"; got != want {
			t.Errorf("shard %d answered %q, want %q", i, got, want)
		}
	}
}

// TestFleetRunningGatherWatches: a sub-sweep still running when its
// results are first asked for answers 409, and the gather then finishes
// through the event stream and the status poll, with rows equal to a
// single daemon's in every format.
func TestFleetRunningGatherWatches(t *testing.T) {
	_, base, shards := newTestFleet(t, 1, server.Options{Workers: 4}, Options{})
	sh := shards[0]
	sh.gate = make(chan struct{})
	single := newTestShard(t, server.Options{Workers: 4})
	req := bigRequest()
	sr := submit(t, base, req)

	var log []string
	until := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			log = append(log, sh.takeLog()...)
			if done() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard never answered %s; it answered %d requests, last %v", what, len(log), log[max(0, len(log)-5):])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	count := func(entry string) int {
		n := 0
		for _, e := range log {
			if e == entry {
				n++
			}
		}
		return n
	}
	until("results 409", func() bool { return count("results 409") > 0 })
	close(sh.gate)
	if v := waitFleetDone(t, base, sr.ID); v.Status != server.StatusDone {
		t.Fatalf("sweep status %q, want done", v.Status)
	}
	until("events 200", func() bool { return count("events 200") > 0 })

	var results []string
	for _, e := range log {
		if strings.HasPrefix(e, "results ") {
			results = append(results, e)
		}
	}
	if got, want := strings.Join(results, ", "), "results 409, results 200"; got != want {
		t.Errorf("results asks answered %q, want %q", got, want)
	}
	if count("status 200") == 0 {
		t.Errorf("the gather never polled the shard's status: %v", log)
	}

	singleID := submit(t, single.url, req).ID
	waitFleetDone(t, single.url, singleID)
	for _, format := range []string{"json", "ndjson", "csv", "table"} {
		_, gathered := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+singleID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: gathered output differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}
}

// TestFleetShardDeathDegradesGracefully is the partial-failure
// acceptance criterion: a shard crashing mid-sweep yields a well-formed
// gather with that shard's jobs reported as skipped rows — never a
// router error.
func TestFleetShardDeathDegradesGracefully(t *testing.T) {
	victim := newTestShard(t, server.Options{Workers: 4})
	victim.gate = make(chan struct{}) // victim's jobs block until released
	healthy := newTestShard(t, server.Options{Workers: 4})
	rt, err := New(Options{
		Shards:         []string{healthy.url, victim.url},
		attempts:       2,
		retryBackoff:   5 * time.Millisecond,
		healthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	base := ts.URL

	sr := submit(t, base, bigRequest())

	// Find the placement and wait until every job on the healthy shard
	// is done (the victim's are blocked on its gate).
	var view server.SweepView
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, base+"/v1/sweeps/"+sr.ID)
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		healthyDone, healthyTotal := 0, 0
		for _, j := range view.Jobs {
			if j.Shard == healthy.url {
				healthyTotal++
				if j.Status == server.JobDone {
					healthyDone++
				}
			}
		}
		if healthyTotal > 0 && healthyDone == healthyTotal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy shard never finished its jobs: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victimJobs := 0
	for _, j := range view.Jobs {
		if j.Shard == victim.url {
			victimJobs++
		}
	}
	if victimJobs == 0 {
		t.Fatal("victim shard was assigned no jobs; placement degenerated")
	}

	victim.kill()
	close(victim.gate) // release its workers so cleanup can proceed

	final := waitFleetDone(t, base, sr.ID)
	if final.Status != server.StatusDegraded {
		t.Fatalf("sweep status %q, want degraded", final.Status)
	}
	for i, j := range final.Jobs {
		switch j.Shard {
		case victim.url:
			if j.Status != server.JobSkipped {
				t.Errorf("job %d on dead shard: status %q, want skipped", i, j.Status)
			}
			if !strings.Contains(j.Error, "shard") {
				t.Errorf("job %d: error does not name the shard: %q", i, j.Error)
			}
		case healthy.url:
			if j.Status != server.JobDone {
				t.Errorf("job %d on healthy shard: status %q, want done", i, j.Status)
			}
		}
	}

	// The gather is well-formed: one row per job in spec order, skipped
	// rows carrying the error, healthy rows carrying metrics.
	resp, body := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=ndjson")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d: %s", resp.StatusCode, body)
	}
	recs, err := allarm.ReadRecords(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("gathered NDJSON is malformed: %v", err)
	}
	if len(recs) != len(final.Jobs) {
		t.Fatalf("gathered %d rows for %d jobs", len(recs), len(final.Jobs))
	}
	for i, rec := range recs {
		onVictim := final.Jobs[i].Shard == victim.url
		if onVictim && rec.Error == "" {
			t.Errorf("row %d: skipped job has no error", i)
		}
		if !onVictim && (rec.Error != "" || rec.RecordMetrics == nil) {
			t.Errorf("row %d: healthy job malformed: %+v", i, rec)
		}
	}

	// Every emitter renders the partial gather without error.
	for _, format := range []string{"json", "csv", "table"} {
		resp, _ := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("format %s on degraded sweep: status %d", format, resp.StatusCode)
		}
	}
}

// TestFleetDrainedShardJobsStaySkipped: a shard drained mid-sweep ends
// its unstarted jobs skipped, and the router takes that status from the
// shard's final status view, not from the rows: with the shard's event
// stream failing, nothing else could tell it the jobs were skipped
// rather than failed.
func TestFleetDrainedShardJobsStaySkipped(t *testing.T) {
	_, base, shards := newTestFleet(t, 1, server.Options{Workers: 2}, Options{})
	sh := shards[0]
	sh.gate = make(chan struct{}) // never opened: every job waits for the drain
	sh.eventsDown.Store(true)
	sr := submit(t, base, bigRequest())

	// Drain only once the shard holds the sub-sweep, so the router's
	// submit is not itself refused.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var views []server.SweepView
		_, body := get(t, sh.url+"/v1/sweeps")
		if json.Unmarshal(body, &views) == nil && len(views) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never received the sub-sweep")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no grace: cancel every job now
	sh.srv.Drain(ctx)

	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDegraded {
		t.Errorf("sweep status %q, want degraded", v.Status)
	}
	for i, j := range v.Jobs {
		if j.Status != server.JobSkipped {
			t.Errorf("job %d: status %q, want skipped", i, j.Status)
		}
	}
}

// TestFleetHealthExclusionAndReadmission: a shard failing its probes is
// excluded from new placements and re-admitted when it recovers, with
// the outage visible in /metrics.
func TestFleetHealthExclusionAndReadmission(t *testing.T) {
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 2}, Options{
		healthInterval: 10 * time.Millisecond,
	})
	sick := shards[1]
	sick.dead.Store(true)

	waitShardHealth(t, base, sick.url, false)

	// With the sick shard excluded, everything lands on the survivor.
	sr := submit(t, base, bigRequest())
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("sweep status %q, want done", v.Status)
	}
	for i, j := range v.Jobs {
		if j.Shard != shards[0].url {
			t.Fatalf("job %d placed on excluded shard %s", i, j.Shard)
		}
	}
	if sick.runs.Load() != 0 {
		t.Fatalf("excluded shard ran %d jobs", sick.runs.Load())
	}

	// Recovery: one good probe re-admits it.
	sick.dead.Store(false)
	waitShardHealth(t, base, sick.url, true)

	var m Metrics
	_, body := get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var row *ShardMetrics
	for i := range m.Shards {
		if m.Shards[i].Name == sick.url {
			row = &m.Shards[i]
		}
	}
	if row == nil {
		t.Fatal("sick shard missing from /metrics")
	}
	if row.UnhealthyIntervals < 1 || row.UnhealthySeconds <= 0 {
		t.Errorf("outage not accounted: %+v", *row)
	}
	if m.ShardsHealthy != 2 || m.ShardsTotal != 2 {
		t.Errorf("fleet health after recovery: %d/%d", m.ShardsHealthy, m.ShardsTotal)
	}
}

// waitShardHealth polls the router's /healthz until the named shard
// reaches the wanted state.
func waitShardHealth(t *testing.T, base, name string, healthy bool) {
	t.Helper()
	want := "unhealthy"
	if healthy {
		want = "healthy"
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, base+"/healthz")
		var h struct {
			Shards map[string]string `json:"shards"`
		}
		if err := json.Unmarshal(body, &h); err == nil && h.Shards[name] == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never became %s", name, want)
}

// TestFleetGuardRails: bearer auth, per-sweep job quotas and rate
// limits on the router, with the router itself authenticating to
// guarded shards via its own credential.
func TestFleetGuardRails(t *testing.T) {
	shardGuard, err := server.NewGuard([]server.ClientConfig{
		{Token: "fleet-secret", Name: "router"},
	})
	if err != nil {
		t.Fatal(err)
	}
	routerGuard, err := server.NewGuard([]server.ClientConfig{
		{Token: "tok-full", Name: "full"},
		{Token: "tok-quota", Name: "quota", MaxJobs: 2},
		{Token: "tok-burst", Name: "burst", Burst: 2}, // fixed 2-request budget
	})
	if err != nil {
		t.Fatal(err)
	}
	_, base, shards := newTestFleet(t, 2,
		server.Options{Workers: 2, Guard: shardGuard},
		Options{Guard: routerGuard, ShardToken: "fleet-secret"})

	small := server.SweepRequest{
		Benchmarks: []string{"barnes", "x264", "dedup"},
		Config:     &server.ConfigOverrides{Threads: 2, AccessesPerThread: 50},
	}

	// No/unknown token: 401. Open paths stay open.
	resp, _ := postJSON(t, base+"/v1/sweeps", small)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated submit: status %d, want 401", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/v1/sweeps", small, "Authorization", "Bearer nope")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: status %d, want 401", resp.StatusCode)
	}
	resp, _ = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d", resp.StatusCode)
	}

	// Quota: the sweep expands to 3 jobs, over tok-quota's cap of 2.
	resp, body := postJSON(t, base+"/v1/sweeps", small, "Authorization", "Bearer tok-quota")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-quota submit: status %d: %s", resp.StatusCode, body)
	}

	// Rate limit: the fixed budget allows exactly two requests.
	for i := 0; i < 2; i++ {
		resp, _ = get(t, base+"/v1/sweeps", "Authorization", "Bearer tok-burst")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budgeted request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ = get(t, base+"/v1/sweeps", "Authorization", "Bearer tok-burst")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The full client's sweep flows end-to-end: the router authenticates
	// to the guarded shards with its own token.
	auth := []string{"Authorization", "Bearer tok-full"}
	sr := submit(t, base, small, auth...)
	v := waitFleetDone(t, base, sr.ID, auth...)
	if v.Status != server.StatusDone {
		t.Fatalf("guarded sweep status %q, want done", v.Status)
	}
	if got := totalRuns(shards); got != 3 {
		t.Fatalf("guarded sweep ran %d jobs, want 3", got)
	}
}

// TestFleetTraceReupload: a trace uploaded to the router reaches the
// shards at submit time — the router uploads its own copy when a shard
// answers "unknown trace", even one that was down during the client's
// upload — so the sweep still completes cleanly across the whole fleet.
func TestFleetTraceReupload(t *testing.T) {
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 2}, Options{})
	amnesiac := shards[1]

	wl, err := allarm.BenchmarkWorkload("barnes", 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := allarm.CaptureTrace(&trace, wl, 1); err != nil {
		t.Fatal(err)
	}

	// The router keeps its copy; no shard sees the upload itself.
	amnesiac.dead.Store(true)
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trace upload: status %d: %s", resp.StatusCode, body)
	}
	var tr server.TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	amnesiac.dead.Store(false)

	// Enough jobs that the amnesiac shard gets some with near-certainty.
	req := server.SweepRequest{
		Workloads: []string{tr.Workload},
		Policies:  []string{"baseline", "allarm", "allarm-hyst"},
		PFKiB:     []int{32, 64, 128, 256},
		Config:    &server.ConfigOverrides{Threads: 2, AccessesPerThread: 32},
	}
	sr := submit(t, base, req)
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("trace sweep status %q, want done: %+v", v.Status, v.Jobs)
	}
	if amnesiac.runs.Load() == 0 {
		t.Skip("placement sent no jobs to the amnesiac shard; re-upload path not exercised this run")
	}
	if got := totalRuns(shards); got != int64(v.Total) {
		t.Fatalf("ran %d simulations for %d jobs", got, v.Total)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// postTrace uploads a trace to base and returns the reply.
func postTrace(t *testing.T, base string, data []byte) server.TraceResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var tr server.TraceResponse
	if resp.StatusCode != http.StatusCreated || json.Unmarshal(body, &tr) != nil {
		t.Fatalf("trace upload: status %d: %s", resp.StatusCode, body)
	}
	return tr
}

// TestFleetTraceReuploadAfterEviction: an accepted sweep keeps the raw
// bytes of its traces, so its shard sub-sweep can still re-upload one
// that an in-memory router has since evicted from its trace store.
func TestFleetTraceReuploadAfterEviction(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gated := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps" {
			once.Do(func() { close(arrived) })
			select {
			case <-release:
			case <-r.Context().Done():
				return nil, r.Context().Err()
			}
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	_, base, shards := newTestFleet(t, 1, server.Options{Workers: 2}, Options{transport: gated})

	capture := func(bench string, seed uint64) []byte {
		wl, err := allarm.BenchmarkWorkload(bench, 2, 32)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := allarm.CaptureTrace(&b, wl, seed); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	tr := postTrace(t, base, capture("barnes", 1))
	req := server.SweepRequest{
		Workloads: []string{tr.Workload},
		Policies:  []string{"baseline", "allarm"},
		Config:    &server.ConfigOverrides{Threads: 2, AccessesPerThread: 32},
	}
	sr := submit(t, base, req)
	<-arrived // dispatched; the shard submit waits at the gate

	// maxTraces newer uploads evict the first from the router's store.
	for seed := uint64(2); seed < 2+maxTraces; seed++ {
		postTrace(t, base, capture("barnes", seed))
	}
	if resp, body := postJSON(t, base+"/v1/sweeps", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace still in the router's store (status %d: %s); eviction not exercised", resp.StatusCode, body)
	}

	close(release)
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("status %q, want done: %+v", v.Status, v.Jobs)
	}
	if got := shards[0].runs.Load(); got != int64(v.Total) {
		t.Fatalf("ran %d simulations for %d jobs", got, v.Total)
	}
}

// TestFleetExplicitJobSpecsKeyIdentity: the sub-sweep JobSpec encoding
// round-trips Job.Key exactly — a shard expanding its explicit list
// computes the same keys the router hashed for placement. This is the
// invariant the whole cache-coherence story rests on.
func TestFleetExplicitJobSpecsKeyIdentity(t *testing.T) {
	req := server.SweepRequest{
		Benchmarks: []string{"barnes", "x264"},
		Policies:   []string{"baseline", "allarm"},
		PFKiB:      []int{64, 256},
		Config:     &server.ConfigOverrides{Threads: 8, AccessesPerThread: 10},
	}
	sweep, err := server.ExpandSweep(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := server.RequestConfig(req.Config)

	// Re-encode every job the way handleSubmit does, re-expand the
	// explicit list shard-side, and compare keys position by position.
	specs := make([]server.JobSpec, sweep.Len())
	for i, job := range sweep.Jobs {
		specs[i] = server.JobSpec{Workload: specOf(job), Policy: job.Config.Policy.String()}
		if job.Config.PFBytes != baseCfg.PFBytes {
			specs[i].PFKiB = job.Config.PFBytes >> 10
		}
	}
	shardSweep, err := server.ExpandSweep(&server.SweepRequest{Jobs: specs, Config: req.Config}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shardSweep.Len() != sweep.Len() {
		t.Fatalf("shard expansion has %d jobs, want %d", shardSweep.Len(), sweep.Len())
	}
	for i := range sweep.Jobs {
		if got, want := shardSweep.Jobs[i].Key(), sweep.Jobs[i].Key(); got != want {
			t.Errorf("job %d: key drifted through JobSpec round trip:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestRouterRejectsBadConfigs: constructor validation.
func TestRouterRejectsBadConfigs(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := New(Options{Shards: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("duplicate shards accepted")
	}
	if _, err := New(Options{Shards: []string{""}}); err == nil {
		t.Error("empty shard URL accepted")
	}
}

// TestFleetVersionEndpoint: the router reports the library version,
// unauthenticated.
func TestFleetVersionEndpoint(t *testing.T) {
	_, base, _ := newTestFleet(t, 1, server.Options{Workers: 1}, Options{})
	resp, body := get(t, base+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: status %d", resp.StatusCode)
	}
	var v struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Version != allarm.Version {
		t.Fatalf("version %q, want %q", v.Version, allarm.Version)
	}
}
