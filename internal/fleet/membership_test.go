package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"allarm/internal/server"
)

// del issues a DELETE with optional headers.
func del(t *testing.T, rawurl string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, rawurl, nil)
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

func listShards(t *testing.T, base string, header ...string) []ShardInfo {
	t.Helper()
	resp, body := get(t, base+"/v1/shards", header...)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list shards: status %d: %s", resp.StatusCode, body)
	}
	var out []ShardInfo
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetMembershipAPI: /v1/shards reads are open to any client, but
// mutations need the admin scope; adds and removes mutate the ring at
// runtime, with conflicts and a last-shard removal refused.
func TestFleetMembershipAPI(t *testing.T) {
	guard, err := server.NewGuard([]server.ClientConfig{
		{Token: "tok-admin", Name: "operator", Admin: true},
		{Token: "tok-user", Name: "user"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 2}, Options{Guard: guard})
	admin := []string{"Authorization", "Bearer tok-admin"}
	user := []string{"Authorization", "Bearer tok-user"}

	if got := listShards(t, base, user...); len(got) != 2 {
		t.Fatalf("listed %d shards, want 2", len(got))
	}

	// A plain client may look but not touch.
	third := newTestShard(t, server.Options{Workers: 2})
	resp, body := postJSON(t, base+"/v1/shards", map[string]string{"url": third.url}, user...)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin add: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = del(t, base+"/v1/shards?url="+url.QueryEscape(shards[0].url), user...)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin remove: status %d", resp.StatusCode)
	}

	// Admin add: the ring grows and new placements can reach the shard.
	resp, body = postJSON(t, base+"/v1/shards", map[string]string{"url": third.url}, admin...)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admin add: status %d: %s", resp.StatusCode, body)
	}
	if got := listShards(t, base, user...); len(got) != 3 {
		t.Fatalf("after add: %d shards, want 3", len(got))
	}
	resp, _ = postJSON(t, base+"/v1/shards", map[string]string{"url": third.url}, admin...)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add: status %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/v1/shards", map[string]string{}, admin...)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty add: status %d, want 400", resp.StatusCode)
	}

	// A sweep through the grown fleet still completes and runs every job
	// exactly once, fleet-wide.
	sr := submit(t, base, bigRequest(), admin...)
	v := waitFleetDone(t, base, sr.ID, admin...)
	if v.Status != server.StatusDone {
		t.Fatalf("post-add sweep status %q", v.Status)
	}
	if got := totalRuns(append(shards, third)); got != 24 {
		t.Fatalf("fleet ran %d simulations, want 24", got)
	}

	// Removals: unknown URL conflicts, members leave one at a time, the
	// last shard is irremovable.
	resp, _ = del(t, base+"/v1/shards?url=http://nope:1", admin...)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove unknown: status %d, want 409", resp.StatusCode)
	}
	for _, sh := range shards {
		resp, body = del(t, base+"/v1/shards?url="+url.QueryEscape(sh.url), admin...)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("remove %s: status %d: %s", sh.url, resp.StatusCode, body)
		}
	}
	if got := listShards(t, base, user...); len(got) != 1 || got[0].URL != third.url {
		t.Fatalf("after removals: %+v", got)
	}
	resp, _ = del(t, base+"/v1/shards?url="+url.QueryEscape(third.url), admin...)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove last shard: status %d, want 409", resp.StatusCode)
	}

	var m Metrics
	_, body = get(t, base+"/metrics", user...)
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.MembershipChanges != 3 { // one add, two removes
		t.Errorf("membership_changes = %d, want 3", m.MembershipChanges)
	}
}

// TestFleetRequeueAfterShardRemoval: jobs degraded to "skipped" by a
// dead shard are re-queued onto the new ring owner when the dead shard
// is removed from the membership — the sweep re-opens, re-dispatches
// only the moved jobs, and lands on done with every row a real result,
// byte-identical to a single-node run.
func TestFleetRequeueAfterShardRemoval(t *testing.T) {
	victim := newTestShard(t, server.Options{Workers: 4})
	victim.gate = make(chan struct{})
	healthy := newTestShard(t, server.Options{Workers: 4})
	rt, err := New(Options{
		Shards:         []string{healthy.url, victim.url},
		Attempts:       2,
		RetryBackoff:   5 * time.Millisecond,
		HealthInterval: time.Hour, // no probes: membership change is the only mover
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
	defer close(victim.gate) // unblock the victim's workers for shutdown

	sr := submit(t, base, bigRequest())

	// Wait until the healthy share is done, then crash the victim. Its
	// jobs stay gated, so the victim never simulates anything.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, base+"/v1/sweeps/"+sr.ID)
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

	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDegraded {
		t.Fatalf("sweep status %q, want degraded", v.Status)
	}

	// Retire the dead shard: its skipped jobs move to the survivor, the
	// sweep re-opens and completes for real.
	resp, body := del(t, base+"/v1/shards?url="+url.QueryEscape(victim.url))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove victim: status %d: %s", resp.StatusCode, body)
	}
	final := waitFleetStatus(t, base, sr.ID, server.StatusDone)
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
		_, gathered := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format="+format)
		_, local := get(t, single.url+"/v1/sweeps/"+sid.ID+"/results?format="+format)
		if !bytes.Equal(gathered, local) {
			t.Errorf("format %s: repaired gather differs from single node:\nfleet:\n%s\nsingle:\n%s",
				format, gathered, local)
		}
	}

	var m Metrics
	_, body = get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.JobsRequeued == 0 {
		t.Error("jobs_requeued = 0 after a requeue wave")
	}
	if m.SweepsDegraded == 0 {
		t.Error("sweeps_degraded = 0; the degraded finish went uncounted")
	}
}

// TestFleetMembershipJournaled: runtime membership changes survive a
// restart — the journaled shard set overrides the boot flags, so
// recovery re-polls the ring its sweeps were actually placed on.
func TestFleetMembershipJournaled(t *testing.T) {
	dir := t.TempDir()
	a := newTestShard(t, server.Options{Workers: 2})
	b := newTestShard(t, server.Options{Workers: 2})
	opts := Options{
		Shards:         []string{a.url},
		Attempts:       2,
		RetryBackoff:   5 * time.Millisecond,
		HealthInterval: time.Hour,
		StateDir:       dir,
	}
	rt1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt1.AddShard(b.url); err != nil {
		t.Fatal(err)
	}
	rt1.Close()

	// Boot with the stale single-shard flag: the journal wins.
	rt2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Close)
	ts := httptest.NewServer(rt2.Handler())
	t.Cleanup(ts.Close)
	got := listShards(t, ts.URL)
	if len(got) != 2 {
		t.Fatalf("journaled membership not restored: %+v", got)
	}
	urls := map[string]bool{got[0].URL: true, got[1].URL: true}
	if !urls[a.url] || !urls[b.url] {
		t.Fatalf("restored membership %v, want {%s, %s}", urls, a.url, b.url)
	}
}

// TestFleetSetShardsReload models the SIGHUP path: SetShards swaps the
// whole set, rejecting invalid sets without touching the ring.
func TestFleetSetShardsReload(t *testing.T) {
	rt, base, shards := newTestFleet(t, 2, server.Options{Workers: 2}, Options{})
	third := newTestShard(t, server.Options{Workers: 2})

	if err := rt.SetShards([]string{}); err == nil {
		t.Error("empty set accepted")
	}
	if err := rt.SetShards([]string{shards[0].url, shards[0].url}); err == nil {
		t.Error("duplicate set accepted")
	}
	if got := listShards(t, base); len(got) != 2 {
		t.Fatalf("failed reloads mutated the ring: %+v", got)
	}
	if err := rt.SetShards([]string{shards[0].url, third.url}); err != nil {
		t.Fatal(err)
	}
	got := listShards(t, base)
	if len(got) != 2 || (got[0].URL != shards[0].url && got[1].URL != shards[0].url) {
		t.Fatalf("reload result: %+v", got)
	}
	for _, si := range got {
		if si.URL == shards[1].url {
			t.Fatalf("replaced shard still a member: %+v", got)
		}
	}

	// The reloaded fleet serves: jobs land only on current members.
	sr := submit(t, base, bigRequest())
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("post-reload sweep status %q", v.Status)
	}
	for i, j := range v.Jobs {
		if j.Shard == shards[1].url {
			t.Errorf("job %d placed on removed shard", i)
		}
	}
}
