package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	allarm "allarm"
)

// captureTrace records a small two-thread workload as trace bytes.
func captureTrace(t *testing.T, name string) []byte {
	t.Helper()
	wl, err := allarm.BenchmarkWorkload(name, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceIDPathEscapeRejected: a "trace:" id is only ever a content
// address. A perfectly valid trace sitting next to traces/ must not be
// reachable as "trace:../<name>", and the refusal keeps the "unknown
// trace" wording the router's re-upload path keys on.
func TestTraceIDPathEscapeRejected(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, Options{Workers: 1, CacheDir: dir, RunJob: stubRun})
	if err := os.WriteFile(filepath.Join(dir, "outside"), captureTrace(t, "barnes"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../outside", "../../outside", "tr-" + strings.Repeat("A", 64)} {
		resp, body := postJSON(t, base+"/v1/sweeps", SweepRequest{Workloads: []string{"trace:" + id}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown trace") {
			t.Errorf("trace:%s: status %d (%s), want 400 unknown trace", id, resp.StatusCode, body)
		}
	}
}

// TestTraceStoreAddUnderEviction: uploads racing each other past the
// memory bound always get their workload back, and every id stays
// resolvable through the disk copy after eviction.
func TestTraceStoreAddUnderEviction(t *testing.T) {
	ts := &traceStore{dir: t.TempDir(), max: 2, keepRaw: true, logf: t.Logf, entries: make(map[string]traceEntry)}
	benches := allarm.Benchmarks()
	traces := make([][]byte, len(benches))
	for i, b := range benches {
		traces[i] = captureTrace(t, b)
	}
	ids := make([]string, len(traces))
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := range traces {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id, wl, _, err := ts.add(traces[i])
				if err != nil || wl == nil {
					t.Errorf("add %d: workload %v, err %v", i, wl, err)
				}
				ids[i] = id
			}(i)
		}
		wg.Wait()
	}
	for i, id := range ids {
		if ts.load(id).wl == nil {
			t.Errorf("trace %d (%s) not resolvable after eviction", i, id)
		}
		if raw := ts.load(id).raw; !bytes.Equal(raw, traces[i]) {
			t.Errorf("trace %d: raw bytes not recoverable", i)
		}
	}
}
