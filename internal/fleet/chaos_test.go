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

// TestFleetChaosByteIdentical runs the acceptance gauntlet: a seeded
// fault plan (5xx bursts on submit, a 429 throttle, dropped
// connections, jittered latency) sits between the router and both
// shards; the sweep must complete cleanly — retries absorb every fault
// — with each job simulated exactly once fleet-wide and the gathered
// output byte-identical to an unfaulted single node.
func TestFleetChaosByteIdentical(t *testing.T) {
	plan := faultPlan{Rules: []faultRule{
		// A deterministic 503 burst on the first two sub-sweep submits.
		{Name: "submit-outage", Method: "POST", Path: "/v1/sweeps", Status: 503, Count: 2},
		// One throttle on a gather GET; the router must absorb it.
		{Name: "throttle", Method: "GET", Path: "/v1/sweeps", Status: 429, RetryAfterMs: 50, Count: 1},
		// Two dropped connections on later gather GETs: results asks,
		// and the stream and polls of a sub-sweep still running.
		{Name: "drops", Method: "GET", Path: "/v1/sweeps", Drop: true, Skip: 1, Count: 2},
		// Background latency jitter over everything (seeded).
		{Name: "latency", P: 0.4, LatencyMs: 1, JitterMs: 2},
	}}
	inj, err := newInjector(plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 4}, Options{
		transport:  inj.RoundTripper(nil),
		attempts:   4,
		jitterSeed: 99,
	})
	single := newTestShard(t, server.Options{Workers: 4})

	sr := submit(t, base, bigRequest())
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("chaos sweep status %q, want done: %+v", v.Status, v.Jobs)
	}
	// Exactly once per job: retried submits coalesce on the shards'
	// in-flight index and caches, so chaos cannot duplicate simulations.
	if got := totalRuns(shards); got != 24 {
		t.Errorf("chaos run simulated %d jobs, want 24", got)
	}

	sid := submit(t, single.url, bigRequest())
	for {
		resp, _ := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format=ndjson")
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, format := range []string{"json", "ndjson", "csv", "table"} {
		_, gathered := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: chaos gather differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}

	// Audit that the faults actually fired — a chaos pass that injected
	// nothing proves nothing.
	for _, rs := range inj.Stats() {
		if rs.Name != "latency" && rs.Fired == 0 {
			t.Errorf("rule %s never fired (matched %d); the plan missed its traffic", rs.Name, rs.Matched)
		}
	}
}

// TestFleetRetryAfterHonored: a 429 from a shard carries Retry-After,
// and the router's next attempt waits it out instead of using its own
// (much shorter) backoff schedule.
func TestFleetRetryAfterHonored(t *testing.T) {
	plan := faultPlan{Rules: []faultRule{
		// Throttle the first two status-path GETs (the SSE subscribe may
		// take one; the status poll takes at least one).
		{Name: "throttle", Method: "GET", Path: "/v1/sweeps/", Status: 429, RetryAfterMs: 900, Count: 2},
	}}
	inj, err := newInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, base, shards := newTestFleet(t, 1, server.Options{Workers: 2}, Options{
		transport: inj.RoundTripper(nil),
		attempts:  3,
		// Without Retry-After the jittered backoff would wait < 10ms.
		retryBackoff: 5 * time.Millisecond,
	})

	req := server.SweepRequest{
		Benchmarks: []string{"barnes", "x264", "dedup"},
		Config:     &server.ConfigOverrides{Threads: 2, AccessesPerThread: 50},
	}
	begin := time.Now()
	sr := submit(t, base, req)
	v := waitFleetDone(t, base, sr.ID)
	elapsed := time.Since(begin)
	if v.Status != server.StatusDone {
		t.Fatalf("throttled sweep status %q", v.Status)
	}
	// 900ms rounds up to a "Retry-After: 1" header; honoring it means
	// the gather cannot have finished in well under a second.
	if elapsed < 900*time.Millisecond {
		t.Errorf("gather finished in %v; Retry-After was not honored", elapsed)
	}
	if got := totalRuns(shards); got != 3 {
		t.Errorf("ran %d simulations, want 3", got)
	}
}

// TestFleetHealthFlapChurn: a shard oscillating across the exclusion
// threshold must not lose or double-count jobs — the sweep ends done
// with every row a real result and the job count exact — and the
// unhealthy-interval metrics must grow monotonically through the churn.
func TestFleetHealthFlapChurn(t *testing.T) {
	victim := newTestShard(t, server.Options{Workers: 4})
	victim.gate = make(chan struct{}) // victim never completes a job
	healthy := newTestShard(t, server.Options{Workers: 4})
	rt, err := New(Options{
		Shards:         []string{healthy.url, victim.url},
		attempts:       2,
		retryBackoff:   2 * time.Millisecond,
		healthInterval: 10 * time.Millisecond,
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
	defer close(victim.gate)

	sr := submit(t, base, bigRequest())

	// Oscillate the victim across the threshold. Each exclusion fails
	// its in-flight group (jobs → skipped) and each transition runs a
	// requeue pass; the metrics samples must never move backwards.
	sample := func() ShardMetrics {
		t.Helper()
		var m Metrics
		_, body := get(t, base+"/metrics")
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		for _, row := range m.Shards {
			if row.Name == victim.url {
				return row
			}
		}
		t.Fatal("victim missing from /metrics")
		return ShardMetrics{}
	}
	var last ShardMetrics
	check := func() {
		t.Helper()
		cur := sample()
		if cur.UnhealthyIntervals < last.UnhealthyIntervals {
			t.Fatalf("unhealthy_intervals went backwards: %d -> %d", last.UnhealthyIntervals, cur.UnhealthyIntervals)
		}
		if cur.UnhealthySeconds < last.UnhealthySeconds {
			t.Fatalf("unhealthy_seconds went backwards: %g -> %g", last.UnhealthySeconds, cur.UnhealthySeconds)
		}
		last = cur
	}
	for flap := 0; flap < 3; flap++ {
		victim.dead.Store(true)
		waitShardHealth(t, base, victim.url, false)
		check()
		victim.dead.Store(false)
		waitShardHealth(t, base, victim.url, true)
		check()
	}
	victim.dead.Store(true)
	waitShardHealth(t, base, victim.url, false)
	check()

	// With the victim finally out, every job must end up done on the
	// survivor — none lost, none skipped, none run twice.
	v := waitFleetStatus(t, base, sr.ID, server.StatusDone)
	for i, j := range v.Jobs {
		if j.Shard != healthy.url || j.Status != server.JobDone {
			t.Errorf("job %d after churn: shard %s status %q", i, j.Shard, j.Status)
		}
	}
	if victim.runs.Load() != 0 {
		t.Errorf("gated victim ran %d jobs", victim.runs.Load())
	}
	if healthy.runs.Load() != 24 {
		t.Errorf("survivor ran %d jobs, want 24 (lost or double-run)", healthy.runs.Load())
	}

	// The churned gather still matches a single-node run byte for byte.
	single := newTestShard(t, server.Options{Workers: 4})
	sid := submit(t, single.url, bigRequest())
	for {
		resp, _ := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format=csv")
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, gathered := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	_, local := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format=csv")
	if !bytes.Equal(gathered, local) {
		t.Errorf("churned gather differs from single node:\nfleet:\n%s\nsingle:\n%s", gathered, local)
	}
	check()
}

// TestFleetChaosRecovery composes the journal with the fault plan: a
// router restarted into a faulty network still recovers its sweep —
// retries absorb the boot-time chaos exactly as they do at submit time.
func TestFleetChaosRecovery(t *testing.T) {
	dir := t.TempDir()
	sh := newTestShard(t, server.Options{Workers: 4})
	cleanOpts := Options{
		Shards:         []string{sh.url},
		attempts:       4,
		retryBackoff:   2 * time.Millisecond,
		healthInterval: time.Hour,
		StateDir:       dir,
	}

	rt1, err := New(cleanOpts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	sh.gate = make(chan struct{})
	sr := submit(t, ts1.URL, bigRequest())
	time.Sleep(20 * time.Millisecond) // let the scatter journal and stall
	ts1.Close()
	rt1.Close()
	close(sh.gate)
	waitTotalRuns(t, []*testShard{sh}, 24)

	// Second boot: same journal, now with faults on the re-poll path.
	plan := faultPlan{Rules: []faultRule{
		{Name: "boot-outage", Method: "GET", Path: "/v1/sweeps", Status: 500, Count: 2},
		{Name: "drop", Method: "POST", Path: "/v1/sweeps", Drop: true, Count: 1},
	}}
	inj, err := newInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	chaosOpts := cleanOpts
	chaosOpts.transport = inj.RoundTripper(nil)
	chaosOpts.jitterSeed = 11
	rt2, err := New(chaosOpts)
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
		t.Fatalf("chaos recovery: status %q recovered %v: %+v", v.Status, v.Recovered, v.Jobs)
	}
	if got := sh.runs.Load(); got != 24 {
		t.Errorf("chaos recovery re-ran simulations: %d, want 24", got)
	}
}
