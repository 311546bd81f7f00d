package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"allarm/internal/server"
)

// waitFleetStatus polls the router until the sweep reaches exactly the
// wanted status (waitFleetDone accepts any terminal state; requeue
// tests need to see a degraded sweep re-open and land on done).
func waitFleetStatus(t *testing.T, base, id, want string) server.SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, base+"/v1/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached status %q", id, want)
	return server.SweepView{}
}

// waitTotalRuns polls the shard-side simulation counters until they
// reach want (work the shards finish on their own, router or no
// router).
func waitTotalRuns(t *testing.T, shards []*testShard, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if totalRuns(shards) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shards ran %d simulations, want %d", totalRuns(shards), want)
}

// TestFleetJournalRecoveryMidSweep is the tentpole acceptance
// criterion: a router abandoned mid-gather (Close is journal-equivalent
// to SIGKILL — no terminal state is written) recovers the sweep under
// its original id at the next boot, re-polls the shards, and serves a
// gather byte-identical to a single-node run — with fleet-wide
// simulation counts unchanged, because the shards' content-addressed
// caches answer the re-ask.
func TestFleetJournalRecoveryMidSweep(t *testing.T) {
	dir := t.TempDir()
	victim := newTestShard(t, server.Options{Workers: 4})
	victim.gate = make(chan struct{}) // victim's jobs stall mid-sweep
	healthy := newTestShard(t, server.Options{Workers: 4})
	shards := []*testShard{healthy, victim}
	opts := Options{
		Shards:         []string{healthy.url, victim.url},
		attempts:       2,
		retryBackoff:   5 * time.Millisecond,
		healthInterval: time.Hour,
		StateDir:       dir,
	}

	rt1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	sr := submit(t, ts1.URL, bigRequest())

	// Let the healthy shard's share finish (and be checkpointed) while
	// the victim's share is still in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts1.URL+"/v1/sweeps/"+sr.ID)
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		healthyDone, victimJobs := 0, 0
		for _, j := range v.Jobs {
			switch {
			case j.Shard == healthy.url && j.Status == server.JobDone:
				healthyDone++
			case j.Shard == victim.url:
				victimJobs++
			}
		}
		if victimJobs > 0 && healthyDone == v.Total-victimJobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy shard never finished its share: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash the router mid-sweep. The shards keep their work.
	ts1.Close()
	rt1.Close()

	// With the router gone, the victim shard finishes its sub-sweep on
	// its own: every result is now in some shard's cache.
	close(victim.gate)
	waitTotalRuns(t, shards, 24)

	// Reboot against the same state dir: the sweep must come back under
	// its original id and finish without a single new simulation.
	rt2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		rt2.Close()
	})

	v := waitFleetDone(t, ts2.URL, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("recovered sweep status %q, want done: %+v", v.Status, v.Jobs)
	}
	if !v.Recovered {
		t.Error("recovered sweep not flagged as recovered")
	}
	if got := totalRuns(shards); got != 24 {
		t.Errorf("recovery re-ran simulations: %d total, want 24", got)
	}

	// Byte-identity against an untouched single node, every format.
	single := newTestShard(t, server.Options{Workers: 4})
	sid := submit(t, single.url, bigRequest())
	for {
		resp, _ := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format=ndjson")
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, format := range []string{"json", "ndjson", "csv", "table"} {
		_, gathered := get(t, ts2.URL+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: recovered gather differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}

	var m Metrics
	_, body := get(t, ts2.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.SweepsRecovered != 1 {
		t.Errorf("sweeps_recovered = %d, want 1", m.SweepsRecovered)
	}
}

// TestFleetJournalRecoveryTerminal: a router restarted after a sweep
// finished still serves it — same id, same bytes — and seeds its id
// counter past journaled sweeps so new submissions never collide.
// DELETE forgets the journal entry too.
func TestFleetJournalRecoveryTerminal(t *testing.T) {
	dir := t.TempDir()
	sh := newTestShard(t, server.Options{Workers: 4})
	opts := Options{
		Shards:         []string{sh.url},
		attempts:       2,
		retryBackoff:   5 * time.Millisecond,
		healthInterval: time.Hour,
		StateDir:       dir,
	}
	req := server.SweepRequest{
		Benchmarks: []string{"barnes", "x264", "dedup"},
		Config:     &server.ConfigOverrides{Threads: 2, AccessesPerThread: 50},
	}

	rt1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	sr := submit(t, ts1.URL, req)
	waitFleetDone(t, ts1.URL, sr.ID)
	_, before := get(t, ts1.URL+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	ts1.Close()
	rt1.Close()

	rt2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		rt2.Close()
	})

	v := waitFleetDone(t, ts2.URL, sr.ID)
	if v.Status != server.StatusDone || !v.Recovered {
		t.Fatalf("recovered terminal sweep: status %q recovered %v", v.Status, v.Recovered)
	}
	_, after := get(t, ts2.URL+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(before, after) {
		t.Errorf("terminal sweep changed across restart:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if ran := sh.runs.Load(); ran != 3 {
		t.Errorf("restart re-ran simulations: %d, want 3", ran)
	}
	// The first router counted the finish; the recovered copy must not.
	var m Metrics
	_, body := get(t, ts2.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.SweepsCompleted != 0 {
		t.Errorf("sweeps_completed = %d after recovering a finished sweep, want 0", m.SweepsCompleted)
	}

	// The id counter resumes past journaled ids.
	sr2 := submit(t, ts2.URL, req)
	if sr2.ID == sr.ID {
		t.Fatalf("new sweep reused recovered id %s", sr.ID)
	}
	waitFleetDone(t, ts2.URL, sr2.ID)

	// DELETE forgets memory and journal alike: a third boot sees neither.
	for _, id := range []string{sr.ID, sr2.ID} {
		dreq, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(dreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %s: status %d", id, resp.StatusCode)
		}
	}
	ts2.Close()
	rt2.Close()
	rt3, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt3.Close()
	rt3mux := httptest.NewServer(rt3.Handler())
	defer rt3mux.Close()
	resp, _ := get(t, rt3mux.URL+"/v1/sweeps/"+sr.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted sweep survived restart: status %d", resp.StatusCode)
	}
}

// TestFleetRequeueAfterShardRemoval: jobs degraded to "skipped" by a
// dead shard are re-queued onto the new ring owner when the router is
// restarted on the same state dir with the dead shard dropped from its
// shard set — the recovered sweep re-opens, re-dispatches only the
// moved jobs, and lands on done with every row a real result,
// byte-identical to a single-node run.
func TestFleetRequeueAfterShardRemoval(t *testing.T) {
	dir := t.TempDir()
	victim := newTestShard(t, server.Options{Workers: 4})
	victim.gate = make(chan struct{})
	healthy := newTestShard(t, server.Options{Workers: 4})
	opts := Options{
		Shards:         []string{healthy.url, victim.url},
		attempts:       2,
		retryBackoff:   5 * time.Millisecond,
		healthInterval: time.Hour, // no probes: the restart is the only mover
		StateDir:       dir,
	}
	rt1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	defer close(victim.gate) // unblock the victim's workers for shutdown

	sr := submit(t, ts1.URL, bigRequest())

	// Wait until the healthy share is done, then crash the victim. Its
	// jobs stay gated, so the victim never simulates anything.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts1.URL+"/v1/sweeps/"+sr.ID)
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		healthyDone, victimJobs := 0, 0
		for _, j := range v.Jobs {
			switch {
			case j.Shard == healthy.url && j.Status == server.JobDone:
				healthyDone++
			case j.Shard == victim.url:
				victimJobs++
			}
		}
		if victimJobs > 0 && healthyDone == v.Total-victimJobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy shard never finished its share: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.kill()

	if v := waitFleetDone(t, ts1.URL, sr.ID); v.Status != server.StatusDegraded {
		t.Fatalf("sweep status %q, want degraded", v.Status)
	}
	// The finish is counted before the status turns degraded.
	var m Metrics
	_, body := get(t, ts1.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.SweepsDegraded == 0 {
		t.Error("sweeps_degraded = 0; the degraded finish went uncounted")
	}
	ts1.Close()
	rt1.Close()

	// Retire the dead shard by restarting without it: its skipped jobs
	// move to the survivor, the sweep re-opens and completes for real.
	opts.Shards = []string{healthy.url}
	rt2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		rt2.Close()
	})
	final := waitFleetStatus(t, ts2.URL, sr.ID, server.StatusDone)
	if final.Requeued < 1 {
		t.Errorf("requeued = %d, want >= 1", final.Requeued)
	}
	for i, j := range final.Jobs {
		if j.Shard != healthy.url || j.Status != server.JobDone {
			t.Errorf("job %d after requeue: shard %s status %q", i, j.Shard, j.Status)
		}
	}
	if victim.runs.Load() != 0 {
		t.Errorf("victim ran %d jobs through its gate", victim.runs.Load())
	}

	// The repaired gather is indistinguishable from a single-node run.
	single := newTestShard(t, server.Options{Workers: 4})
	sid := submit(t, single.url, bigRequest())
	for {
		resp, _ := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format=ndjson")
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, format := range []string{"ndjson", "csv"} {
		_, gathered := get(t, ts2.URL+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: repaired gather differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}

	_, body = get(t, ts2.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.JobsRequeued == 0 {
		t.Error("jobs_requeued = 0 after a requeue wave")
	}
}

// TestRetryDelaySchedule pins the retry pacing contract: a throttled
// shard's Retry-After wins verbatim; everything else draws full jitter
// in (0, backoff << (attempt-1)]; and a fixed jitterSeed replays the
// same draw sequence.
func TestRetryDelaySchedule(t *testing.T) {
	mk := func(seed int64) *Router {
		rt, err := New(Options{
			Shards:         []string{"http://127.0.0.1:1"},
			retryBackoff:   100 * time.Millisecond,
			healthInterval: time.Hour,
			jitterSeed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	rt := mk(42)

	he := &httpError{status: http.StatusTooManyRequests, retryAfter: 7 * time.Second}
	if d := rt.retryDelay(he, 1); d != 7*time.Second {
		t.Errorf("429 Retry-After not honored: %v", d)
	}
	// A 429 without a hint falls back to the jittered schedule.
	if d := rt.retryDelay(&httpError{status: 429}, 1); d <= 0 || d > 100*time.Millisecond {
		t.Errorf("hintless 429 delay %v outside (0, 100ms]", d)
	}
	for attempt := 1; attempt <= 4; attempt++ {
		ceil := 100 * time.Millisecond << (attempt - 1)
		for i := 0; i < 32; i++ {
			if d := rt.retryDelay(nil, attempt); d <= 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, ceil)
			}
		}
	}

	// Same seed, same sequence — chaos runs are replayable.
	a, b := mk(7), mk(7)
	for i := 0; i < 16; i++ {
		if da, db := a.retryDelay(nil, 2), b.retryDelay(nil, 2); da != db {
			t.Fatalf("draw %d diverged under one seed: %v vs %v", i, da, db)
		}
	}
}
