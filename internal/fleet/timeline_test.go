package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"allarm/internal/obs"
	"allarm/internal/server"
)

// fleetTimeline fetches the router's merged timeline for a sweep.
func fleetTimeline(t *testing.T, base, id string, header ...string) obs.TimelineView {
	t.Helper()
	resp, body := get(t, base+"/v1/sweeps/"+id+"/timeline", header...)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %d: %s", resp.StatusCode, body)
	}
	var tv obs.TimelineView
	if err := json.Unmarshal(body, &tv); err != nil {
		t.Fatal(err)
	}
	return tv
}

// hasEvent reports whether the view contains an event with this name.
func hasEvent(events []obs.TimelineEvent, name string) bool {
	for _, e := range events {
		if e.Event == name {
			return true
		}
	}
	return false
}

// TestFleetMergedTimeline is the cross-daemon correlation acceptance
// check: a sweep submitted through the router with an explicit request
// id yields one merged timeline in which the router's own lifecycle
// events AND the shard-side per-job events all carry that id, shard
// events are tagged with their shard and their job indices are remapped
// to global spec positions.
func TestFleetMergedTimeline(t *testing.T) {
	_, base, shards := newTestFleet(t, 2, server.Options{Workers: 4}, Options{})
	const reqID = "fleet-correlation-test-1"
	req := bigRequest()
	sr := submit(t, base, req, obs.RequestIDHeader, reqID)
	v := waitFleetDone(t, base, sr.ID)
	if v.Status != server.StatusDone {
		t.Fatalf("sweep: %+v", v)
	}

	tv := fleetTimeline(t, base, sr.ID)
	if tv.ID != sr.ID {
		t.Fatalf("timeline id = %q, want %q", tv.ID, sr.ID)
	}
	for _, name := range []string{"accepted", "expanded", "assigned", "gathered", "done"} {
		if !hasEvent(tv.Events, name) {
			t.Errorf("merged timeline missing router event %q", name)
		}
	}
	// Shard-side events made it into the merge, tagged and remapped.
	var shardEvents, started, finished int
	for _, e := range tv.Events {
		if e.Shard == "" {
			continue
		}
		shardEvents++
		switch e.Event {
		case "started":
			started++
		case "finished":
			finished++
		}
		if e.Job >= v.Total {
			t.Errorf("shard event %q job index %d not remapped (total %d)", e.Event, e.Job, v.Total)
		}
		if e.Shard != shards[0].url && e.Shard != shards[1].url {
			t.Errorf("shard event tagged with unknown shard %q", e.Shard)
		}
	}
	if shardEvents == 0 {
		t.Fatal("merged timeline carries no shard-side events")
	}
	if started < v.Total || finished < v.Total {
		t.Errorf("merged timeline has %d started / %d finished events for %d jobs", started, finished, v.Total)
	}
	// Every event — router-side and shard-side — carries the caller's id:
	// the router adopted it, forwarded it on each shard call, and the
	// shards stamped their own timelines with it.
	for _, e := range tv.Events {
		if e.RequestID != reqID {
			t.Errorf("event %q (shard %q) request id = %q, want %q", e.Event, e.Shard, e.RequestID, reqID)
		}
	}
}

// TestRouterPrometheusMetrics pins the router's format negotiation and
// its histogram families.
func TestRouterPrometheusMetrics(t *testing.T) {
	_, base, _ := newTestFleet(t, 2, server.Options{Workers: 2}, Options{})
	sr := submit(t, base, bigRequest())
	waitFleetDone(t, base, sr.ID)

	resp, body := get(t, base+"/metrics?format=prometheus")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE allarm_router_sweeps_completed_total counter",
		"# TYPE allarm_router_gather_duration_seconds histogram",
		"allarm_router_sweeps_completed_total 1",
		"allarm_router_gather_duration_seconds_count 1",
		"# TYPE allarm_router_shards_healthy gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
	// The JSON default is unchanged.
	var m Metrics
	_, body = get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.SweepsCompleted != 1 || m.Gathers == 0 {
		t.Errorf("JSON router metrics: %+v", m)
	}
}
