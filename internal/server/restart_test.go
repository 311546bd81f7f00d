package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	allarm "allarm"
)

// waitJob polls until job i of the sweep reaches the given status.
func waitJob(t *testing.T, base, id string, i int, status string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, base+"/v1/sweeps/"+id)
		var v SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if i < len(v.Jobs) && v.Jobs[i].Status == status {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %q", i, status)
}

// TestRestartRecoveryByteIdentical is the acceptance criterion for
// durable serving: a daemon restarted against the same cache directory
// re-enqueues the persisted sweep under its original id, serves the
// previously computed jobs from the disk store without re-simulating,
// and the final CSV is byte-identical to a local run.
func TestRestartRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()

	// First daemon: run the sweep to completion (results land on disk).
	_, base := newTestServer(t, Options{Workers: 2, CacheDir: dir})
	sr := submit(t, base, tinySweepRequest())
	waitDone(t, base, sr.ID)
	_, csv1 := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=csv")

	// Second daemon, same directory, with a run counter: the recovered
	// sweep must finish without a single simulation.
	var runs atomic.Int64
	_, base2 := newTestServer(t, Options{
		Workers:  2,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			runs.Add(1)
			return j.RunCtx(ctx)
		},
	})
	v := waitDone(t, base2, sr.ID)
	if !v.Recovered {
		t.Errorf("recovered sweep not marked recovered: %+v", v)
	}
	if v.Status != StatusDone || v.Done != v.Total {
		t.Fatalf("recovered sweep state: %+v", v)
	}
	if got := runs.Load(); got != 0 {
		t.Errorf("%d simulations ran on recovery; all jobs were on disk", got)
	}
	_, csv2 := get(t, base2+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("recovered results differ:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
	// And they match a local run of the same sweep rendered the same way.
	direct, err := allarm.RunSweep(context.Background(), tinySweepDirect())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := (allarm.CSVEmitter{}).Emit(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv2, want.Bytes()) {
		t.Errorf("recovered results differ from local run:\nserved:\n%s\nlocal:\n%s", csv2, want.Bytes())
	}

	m := metricsOf(t, base2)
	if m.SweepsRecovered != 1 || m.CacheDiskHits != 2 || m.JobsRun != 0 {
		t.Errorf("recovery metrics: %+v", m)
	}
}

// TestRestartReenqueuesOnlyMissingJobs kills a daemon mid-sweep (one
// job done and persisted, one interrupted) and asserts the restarted
// daemon serves the finished job from disk and re-runs only the
// missing one.
func TestRestartReenqueuesOnlyMissingJobs(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fake := func(name string) *allarm.Result {
		return &allarm.Result{Benchmark: name, RuntimeNs: 7, Events: 3}
	}
	// Job 0 (baseline) completes; job 1 (allarm) blocks until the
	// daemon dies — exactly a SIGKILL mid-sweep.
	s1, base := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			if j.Config.Policy == allarm.ALLARM {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fake(j.WorkloadName()), nil
		},
	})
	sr := submit(t, base, tinySweepRequest())
	waitJob(t, base, sr.ID, 0, JobDone)
	waitJob(t, base, sr.ID, 1, JobRunning)
	s1.Close() // abrupt: no drain, like a kill -9
	close(gate)

	var runs atomic.Int64
	_, base2 := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			// Only the recovered sweep's jobs are under test; the extra
			// submission at the end runs freely.
			if j.WorkloadName() == "ocean-cont" {
				runs.Add(1)
				if j.Config.Policy != allarm.ALLARM {
					t.Errorf("re-simulated job %q/%v, which was already on disk", j.WorkloadName(), j.Config.Policy)
				}
			}
			return fake(j.WorkloadName()), nil
		},
	})
	v := waitDone(t, base2, sr.ID)
	if v.Status != StatusDone || !v.Recovered {
		t.Fatalf("recovered sweep: %+v", v)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d jobs re-simulated after restart, want exactly the missing 1", got)
	}
	m := metricsOf(t, base2)
	if m.CacheDiskHits != 1 || m.JobsRun != 1 || m.SweepsRecovered != 1 {
		t.Errorf("metrics after partial recovery: %+v", m)
	}
	// The daemon id counter resumed past the recovered sweep: a new
	// submission must not collide with it.
	sr2 := submit(t, base2, SweepRequest{Benchmarks: []string{"barnes"}})
	if sr2.ID == sr.ID {
		t.Errorf("new sweep reused recovered id %s", sr.ID)
	}
}

// TestCloseWaitsForSweeps: Close returns only after every sweep
// goroutine has finished writing, so a restarted daemon (or a test's
// directory cleanup) never races a dying one's cache-dir writes, and it
// refuses submissions from then on.
func TestCloseWaitsForSweeps(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			<-ctx.Done()
			time.Sleep(50 * time.Millisecond) // a slow abort
			return nil, ctx.Err()
		},
	})
	sr := submit(t, base, tinySweepRequest())
	waitJob(t, base, sr.ID, 0, JobRunning)
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", sr.ID+".ndjson")); err != nil {
		t.Errorf("Close returned before the sweep's checkpoint landed: %v", err)
	}
	resp, body := postJSON(t, base+"/v1/sweeps", tinySweepRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: status %d: %s", resp.StatusCode, body)
	}
}

// TestDrainAbortsExecutingJob: with cancellation threaded through
// Exec, a drain interrupts the running simulation (status "aborted",
// partial metrics in the checkpoint) and skips the queued one (status
// "skipped") — and the checkpoint NDJSON distinguishes the two.
func TestDrainAbortsExecutingJob(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			<-ctx.Done() // an honest interruptible simulation: block until cancelled
			return &allarm.Result{Benchmark: j.WorkloadName(), PolicyUsed: j.Config.Policy, Events: 11, Partial: true}, ctx.Err()
		},
	})
	sr := submit(t, base, tinySweepRequest())
	waitJob(t, base, sr.ID, 0, JobRunning)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired grace: cancel immediately
	start := time.Now()
	s.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain took %v with an interruptible job", elapsed)
	}

	v := waitDone(t, base, sr.ID)
	if v.Status != StatusCheckpointed {
		t.Fatalf("status %q, want %q", v.Status, StatusCheckpointed)
	}
	if v.Jobs[0].Status != JobAborted {
		t.Errorf("executing job status %q, want %q", v.Jobs[0].Status, JobAborted)
	}
	if v.Jobs[1].Status != JobSkipped {
		t.Errorf("queued job status %q, want %q", v.Jobs[1].Status, JobSkipped)
	}

	data, err := os.ReadFile(filepath.Join(dir, "checkpoints", sr.ID+".ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d checkpoint lines, want 2:\n%s", len(lines), data)
	}
	var aborted, skipped struct {
		Aborted  bool    `json:"aborted"`
		Error    string  `json:"error"`
		Accesses *uint64 `json:"accesses"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &aborted); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &skipped); err != nil {
		t.Fatal(err)
	}
	if !aborted.Aborted || aborted.Error == "" || aborted.Accesses == nil {
		t.Errorf("aborted checkpoint line missing aborted flag, error or partial metrics: %s", lines[0])
	}
	if skipped.Aborted || skipped.Error == "" || skipped.Accesses != nil {
		t.Errorf("skipped checkpoint line should carry the error only: %s", lines[1])
	}

	m := metricsOf(t, base)
	if m.JobsAborted != 1 {
		t.Errorf("jobs_aborted = %d, want 1", m.JobsAborted)
	}
	if m.JobErrors != 0 {
		t.Errorf("cancellations counted as job errors: %+v", m)
	}
}

// TestDeleteSweep: DELETE evicts finished sweeps (and their persisted
// files), refuses running ones, and 404s on unknowns.
func TestDeleteSweep(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	_, base := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &allarm.Result{Benchmark: j.WorkloadName()}, nil
		},
	})
	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	sr := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	waitJob(t, base, sr.ID, 0, JobRunning)
	if code := del(sr.ID); code != http.StatusConflict {
		t.Errorf("deleting a running sweep: %d, want 409", code)
	}
	close(gate)
	waitDone(t, base, sr.ID)

	spec := filepath.Join(dir, "sweeps", sr.ID+".json")
	if _, err := os.Stat(spec); err != nil {
		t.Fatalf("spec file missing before delete: %v", err)
	}
	if code := del(sr.ID); code != http.StatusNoContent {
		t.Errorf("deleting a finished sweep: %d, want 204", code)
	}
	if resp, _ := get(t, base+"/v1/sweeps/"+sr.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted sweep still served: %d", resp.StatusCode)
	}
	if _, err := os.Stat(spec); !os.IsNotExist(err) {
		t.Errorf("spec file survives delete: %v", err)
	}
	if code := del("sw-999999"); code != http.StatusNotFound {
		t.Errorf("deleting unknown sweep: %d, want 404", code)
	}
	m := metricsOf(t, base)
	if m.SweepsDeleted != 1 {
		t.Errorf("sweeps_deleted = %d, want 1", m.SweepsDeleted)
	}
}

// TestRetainEvictsFinishedSweeps: with -retain, finished sweeps (and
// their persisted specs) are evicted after the TTL while the
// content-addressed result cache keeps serving identical
// re-submissions.
func TestRetainEvictsFinishedSweeps(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	_, base := newTestServer(t, Options{
		Workers:  1,
		CacheDir: dir,
		Retain:   30 * time.Millisecond,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			runs.Add(1)
			return &allarm.Result{Benchmark: j.WorkloadName()}, nil
		},
	})
	sr := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	waitDone(t, base, sr.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, base+"/v1/sweeps") // listing triggers eviction
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d", resp.StatusCode)
		}
		if resp, _ := get(t, base+"/v1/sweeps/"+sr.ID); resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished sweep never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "sweeps", sr.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("expired sweep's spec file survives: %v", err)
	}
	m := metricsOf(t, base)
	if m.SweepsExpired < 1 {
		t.Errorf("sweeps_expired = %d, want >= 1", m.SweepsExpired)
	}

	// The result cache is untouched: an identical re-submission is a
	// pure cache hit.
	sr2 := submit(t, base, SweepRequest{Benchmarks: []string{"barnes"}})
	waitDone(t, base, sr2.ID)
	if got := runs.Load(); got != 1 {
		t.Errorf("re-submission after expiry re-ran the job (%d runs)", got)
	}
}

// TestTraceSweepSurvivesRestart: a sweep whose workload is an uploaded
// trace recovers after a restart because the upload itself is
// persisted under the cache directory.
func TestTraceSweepSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "restart-trace", Threads: 2, Key: "restart-trace-v1",
		Stream: func(thread int, seed uint64) allarm.Stream {
			n := 0
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if n >= 64 {
					return allarm.Access{}, false
				}
				n++
				return allarm.Access{VAddr: uint64(0x1000*thread + 64*n), Write: n%3 == 0}, true
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

	s1, base := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sr := submit(t, base, SweepRequest{Workloads: []string{tr.Workload}})
	waitDone(t, base, sr.ID)
	_, csv1 := get(t, base+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	s1.Close()

	// Fresh daemon, same directory: the trace workload resolves from
	// the persisted upload and the result from the disk store.
	_, base2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	v := waitDone(t, base2, sr.ID)
	if v.Status != StatusDone {
		t.Fatalf("recovered trace sweep: %+v", v)
	}
	_, csv2 := get(t, base2+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("trace sweep results changed across restart:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
}
