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

// newRealShard starts a backend that really simulates (no RunJob stub)
// — migration needs the genuine checkpoint-aware runner on both ends.
func newRealShard(t *testing.T, opts server.Options) *testShard {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := &testShard{srv: srv}
	inner := srv.Handler()
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sh.dead.Load() {
			http.Error(w, "shard down", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	sh.url = sh.ts.URL
	t.Cleanup(func() {
		sh.ts.Close()
		srv.Close()
	})
	return sh
}

// shardMetrics reads one backend's /metrics.
func shardMetrics(t *testing.T, sh *testShard) server.Metrics {
	t.Helper()
	_, body := get(t, sh.url+"/metrics")
	var m server.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFleetMigratesInFlightJob is the fleet acceptance criterion for
// checkpoint migration: retiring the shard that owns a running job
// moves the job's machine-state checkpoint to the new ring owner, which
// resumes it mid-simulation instead of starting from event zero — and
// the gathered results stay byte-identical to a single-node run.
func TestFleetMigratesInFlightJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	req := server.SweepRequest{
		Benchmarks: []string{"ocean-cont"},
		Policies:   []string{"allarm"},
		Config:     &server.ConfigOverrides{Threads: 2, AccessesPerThread: 30_000},
	}

	// Reference: the same sweep on one standalone real daemon.
	ref := newRealShard(t, server.Options{Workers: 1})
	refID := submit(t, ref.url, req)
	waitJobStatus(t, ref.url, refID.ID)
	_, refCSV := get(t, ref.url+"/v1/sweeps/"+refID.ID+"/results?format=csv")

	// Fleet: two checkpointing shards behind a router.
	a := newRealShard(t, server.Options{Workers: 1, CacheDir: t.TempDir(), CheckpointInterval: 4096})
	b := newRealShard(t, server.Options{Workers: 1, CacheDir: t.TempDir(), CheckpointInterval: 4096})
	rt, err := New(Options{
		Shards:         []string{a.url, b.url},
		Attempts:       2,
		RetryBackoff:   5 * time.Millisecond,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		rts.Close()
		rt.Close()
	})

	sr := submit(t, rts.URL, req)

	// The single job's placement is decided at dispatch; find its owner.
	var owner, other *testShard
	deadline := time.Now().Add(10 * time.Second)
	for owner == nil {
		if time.Now().After(deadline) {
			t.Fatal("job was never placed on a shard")
		}
		_, body := get(t, rts.URL+"/v1/sweeps/"+sr.ID)
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		switch v.Jobs[0].Shard {
		case a.url:
			owner, other = a, b
		case b.url:
			owner, other = b, a
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Wait for the owner to persist at least one machine-state checkpoint,
	// then retire it mid-job.
	for shardMetrics(t, owner).CheckpointsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner never checkpointed the running job")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.RemoveShard(owner.url); err != nil {
		t.Fatal(err)
	}

	v := waitFleetDone(t, rts.URL, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("sweep after migration: %+v", v)
	}
	if v.Jobs[0].Shard != other.url {
		t.Errorf("job finished on %s, want new owner %s", v.Jobs[0].Shard, other.url)
	}

	// The router migrated the checkpoint and the new owner resumed from
	// it — no re-simulation from event zero.
	_, body := get(t, rts.URL+"/metrics")
	var rm Metrics
	if err := json.Unmarshal(body, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.JobsMigrated == 0 {
		t.Errorf("router jobs_migrated = 0, want >= 1")
	}
	if m := shardMetrics(t, other); m.JobsResumed == 0 {
		t.Errorf("new owner jobs_resumed = 0: it re-simulated from scratch")
	}

	// The merged timeline records the migration and the new owner's
	// resume (the departed shard's own events are unreachable — it left
	// the fleet — so the router-side record is what survives).
	tv := fleetTimeline(t, rts.URL, sr.ID)
	if !hasEvent(tv.Events, "migrated") {
		t.Errorf("merged timeline has no migrated event: %+v", tv.Events)
	}
	if !hasEvent(tv.Events, "resumed") {
		t.Errorf("merged timeline has no resumed event from the new owner: %+v", tv.Events)
	}

	// Byte-identity across migration: the fleet's gathered CSV matches
	// the uninterrupted single-node run.
	_, csv := get(t, rts.URL+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("migrated fleet results differ from single node:\n%s\nvs\n%s", csv, refCSV)
	}
}

// waitJobStatus polls a backend daemon (not the router) until its sweep
// is done.
func waitJobStatus(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, base+"/v1/sweeps/"+id)
		var v server.SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == server.StatusDone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("single-node sweep did not finish")
}
