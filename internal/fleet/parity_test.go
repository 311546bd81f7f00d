package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"allarm/internal/server"
)

// TestDaemonRouterParity drives one request through a standalone
// allarm-serve and through allarm-router over a single shard and holds
// the two front ends to the same contract: status codes, results bytes
// in every format, the SSE ending and the status JSON key set (apart
// from the fields only one daemon fills).
func TestDaemonRouterParity(t *testing.T) {
	direct := newTestShard(t, server.Options{Workers: 2})
	direct.gate = make(chan struct{})
	_, routerBase, shards := newTestFleet(t, 1, server.Options{Workers: 2}, Options{})
	shards[0].gate = make(chan struct{})
	req := server.SweepRequest{
		Benchmarks: []string{"barnes", "x264"},
		Policies:   []string{"baseline", "allarm"},
		Config:     &server.ConfigOverrides{Threads: 2, AccessesPerThread: 50},
	}
	bases := map[string]string{"daemon": direct.url, "router": routerBase}
	gates := map[string]chan struct{}{"daemon": direct.gate, "router": shards[0].gate}
	ids := make(map[string]string)
	code := func(method, url string) int {
		r, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, base := range bases {
		ids[name] = submit(t, base, req).ID
		sweep := base + "/v1/sweeps/" + ids[name]
		for _, c := range []struct {
			method, url string
			want        int
		}{
			{"GET", base + "/v1/sweeps/no-such-sweep", http.StatusNotFound},
			{"GET", base + "/v1/sweeps/no-such-sweep/results", http.StatusNotFound},
			{"DELETE", base + "/v1/sweeps/no-such-sweep", http.StatusNotFound},
			{"GET", sweep + "/results", http.StatusConflict},
			{"DELETE", sweep, http.StatusConflict},
		} {
			if got := code(c.method, c.url); got != c.want {
				t.Errorf("%s: %s %s: status %d, want %d", name, c.method, c.url, got, c.want)
			}
		}
		close(gates[name])
	}
	views := make(map[string]server.SweepView)
	views["daemon"] = waitFleetDone(t, direct.url, ids["daemon"])
	views["router"] = waitFleetDone(t, routerBase, ids["router"])

	for _, format := range []string{"json", "ndjson", "csv", "table"} {
		_, a := get(t, direct.url+"/v1/sweeps/"+ids["daemon"]+"/results?format="+format)
		_, b := get(t, routerBase+"/v1/sweeps/"+ids["router"]+"/results?format="+format)
		if !bytes.Equal(a, b) {
			t.Errorf("format %s: results differ:\ndaemon:\n%s\nrouter:\n%s", format, a, b)
		}
	}

	keys := make(map[string][]string)
	for name, base := range bases {
		sweep := base + "/v1/sweeps/" + ids[name]
		if got := code("GET", sweep+"/results?format=bogus"); got != http.StatusBadRequest {
			t.Errorf("%s: ?format=bogus: status %d, want 400", name, got)
		}
		_, stream := get(t, sweep+"/events")
		last := string(stream[strings.LastIndex(string(stream), "event: "):])
		if !strings.HasPrefix(last, "event: sweep\n") || !strings.Contains(last, `"status":"done"`) {
			t.Errorf("%s: SSE stream does not end with the final sweep event:\n%s", name, stream)
		}
		_, body := get(t, sweep)
		keys[name] = statusKeys(t, body)
		if got := code("DELETE", sweep); got != http.StatusNoContent {
			t.Errorf("%s: delete finished sweep: status %d, want 204", name, got)
		}
		if views[name].Status != server.StatusDone {
			t.Errorf("%s: sweep status %q, want done", name, views[name].Status)
		}
	}
	if strings.Join(keys["daemon"], " ") != strings.Join(keys["router"], " ") {
		t.Errorf("status key sets differ:\ndaemon: %v\nrouter: %v", keys["daemon"], keys["router"])
	}
}

// statusKeys lists a status payload's keys — top level and per job —
// without the fields only one executor fills.
func statusKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var v map[string]json.RawMessage
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	var jobs []map[string]json.RawMessage
	if err := json.Unmarshal(v["jobs"], &jobs); err != nil {
		t.Fatal(err)
	}
	only := map[string]bool{"shard": true, "resumed": true, "requeued": true}
	var keys []string
	for k := range v {
		keys = append(keys, k)
	}
	for _, j := range jobs {
		for k := range j {
			if !only[k] {
				keys = append(keys, "jobs."+k)
			}
		}
	}
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if !only[k] && (i == 0 || k != keys[i-1]) {
			out = append(out, k)
		}
	}
	return out
}
