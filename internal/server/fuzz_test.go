package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	allarm "allarm"
	"allarm/internal/obs"
)

// requestSeeds are request bodies from the serving tests: the grid, the
// router's explicit job list, trace specs and invalid fields.
func requestSeeds(t testing.TB) [][]byte {
	reqs := []SweepRequest{
		tinySweepRequest(),
		{Benchmarks: allarm.Benchmarks(), Policies: []string{"baseline", "allarm", "allarm-hyst"}, PFKiB: []int{64, 256},
			Config: &ConfigOverrides{Threads: 4, AccessesPerThread: 100}},
		{Jobs: []JobSpec{{Workload: "bench:barnes", Policy: "allarm", PFKiB: 64}, {Workload: "bench:x264"}}},
		{Workloads: []string{"bench:dedup", "trace:tr-missing"}},
		{Benchmarks: []string{"barnes"}, PFKiB: []int{-3}},
	}
	var out [][]byte
	for _, r := range reqs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzExpandSweep feeds arbitrary request bodies to the submit path's
// decoder and expander: either an error or a non-empty sweep, never a
// panic, and an accepted request re-expands to the same keys in order.
func FuzzExpandSweep(f *testing.F) {
	for _, seed := range requestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		sweep, err := ExpandSweep(&req, nil)
		if err != nil {
			return
		}
		if sweep.Len() == 0 || sweep.Len() > maxSweepJobs {
			t.Fatalf("accepted sweep of %d jobs", sweep.Len())
		}
		again, err := ExpandSweep(&req, nil)
		if err != nil || again.Len() != sweep.Len() {
			t.Fatalf("re-expansion differs: %v", err)
		}
		for i := range sweep.Jobs {
			if sweep.Jobs[i].Key() != again.Jobs[i].Key() {
				t.Fatalf("job %d: key changed on re-expansion", i)
			}
		}
	})
}

// stubExec accepts every sweep and runs nothing.
type stubExec struct{}

func (stubExec) Place([]allarm.Job) ([]string, error) { return nil, nil }
func (stubExec) Run(*SweepState)                      {}
func (stubExec) Timeline(_ *http.Request, st *SweepState) []obs.TimelineEvent {
	return st.Events()
}
func (stubExec) Forget(*SweepState) {}

// FuzzJournalRecovery boots a front over a state directory holding one
// fuzzed journal entry and its fuzzed records: recovery must skip or
// restore them, never panic.
func FuzzJournalRecovery(f *testing.F) {
	line, err := json.Marshal(recordLine{Index: 0, Status: JobDone, Record: allarm.Record{Benchmark: "barnes", Policy: "baseline"}})
	if err != nil {
		f.Fatal(err)
	}
	for i, req := range requestSeeds(f) {
		entry := []byte(`{"id":"sw-000001","created":"2026-01-02T03:04:05Z","request":` + string(req) + `}`)
		if i == 1 {
			entry = []byte(`{"id":"sw-000001","request":` + string(req) + `,"assignment":{"http://a":[0,1],"http://b":[2]}}`)
		}
		f.Add(entry, append(line, '\n'))
	}
	f.Add([]byte(`{"id":"../sw-000001","request":{"benchmarks":["barnes"]}}`), []byte(nil))
	f.Fuzz(func(t *testing.T, entry, records []byte) {
		dir := t.TempDir()
		sweeps := filepath.Join(dir, "sweeps")
		if err := os.MkdirAll(sweeps, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"sw-000001.json": entry, "sw-000001.records.ndjson": records} {
			if err := os.WriteFile(filepath.Join(sweeps, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		front, err := NewFront(stubExec{}, FrontConfig{
			IDPrefix: "sw-", Dir: dir, MaxTraces: 1, Incomplete: StatusCheckpointed,
			Registry: obs.NewRegistry(), MetricPrefix: "allarm_",
		})
		if err != nil {
			t.Fatal(err)
		}
		front.Recover()
		for _, st := range front.Sweeps() {
			if st.ID != "sw-000001" {
				t.Fatalf("recovered sweep under id %q", st.ID)
			}
			st.View()
		}
		front.Close(nil)
	})
}

// TestSubmitRefusesOversizedSweep: a body under the 1 MiB submit limit
// that crosses all eight benchmarks with half a million pf_kib entries
// is refused with 400 before a single job is built.
func TestSubmitRefusesOversizedSweep(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})
	head, _ := json.Marshal(allarm.Benchmarks())
	var body bytes.Buffer
	body.WriteString(`{"benchmarks":` + string(head) + `,"pf_kib":[1`)
	for body.Len() < maxSubmitBytes-4 {
		body.WriteString(",1")
	}
	body.WriteString("]}")
	var req SweepRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ExpandSweep(&req, nil)
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("expansion allocated %d bytes before refusing (err %v)", after.TotalAlloc-before.TotalAlloc, err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "more than 4096 jobs") {
		t.Fatalf("status %d (%q), want 400 naming the job limit", resp.StatusCode, e.Error)
	}
}

// TestExpandSweepJobLimit: exactly maxSweepJobs expands; one more, as a
// grid or as an explicit job, does not.
func TestExpandSweepJobLimit(t *testing.T) {
	sizes := make([]int, maxSweepJobs/16)
	for i := range sizes {
		sizes[i] = i + 1
	}
	req := SweepRequest{Benchmarks: allarm.Benchmarks()[:8], Policies: []string{"baseline", "allarm"}, PFKiB: sizes}
	if sweep, err := ExpandSweep(&req, nil); err != nil || sweep.Len() != maxSweepJobs {
		t.Fatalf("at the limit: %v", err)
	}
	req.Jobs = []JobSpec{{Workload: "bench:barnes"}}
	if _, err := ExpandSweep(&req, nil); err == nil {
		t.Fatal("one explicit job over the limit accepted")
	}
	req.Jobs, req.Policies = nil, []string{"baseline", "allarm", "allarm-hyst"}
	if _, err := ExpandSweep(&req, nil); err == nil {
		t.Fatal("grid over the limit accepted")
	}
}
