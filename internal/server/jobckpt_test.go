package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	allarm "allarm"
)

// ckptSweepRequest is a single-job sweep sized so the simulation runs
// long enough to checkpoint but stays test-fast.
func ckptSweepRequest(accesses int) SweepRequest {
	return SweepRequest{
		Benchmarks: []string{"ocean-cont"},
		Policies:   []string{"allarm"},
		Config:     &ConfigOverrides{Threads: 2, AccessesPerThread: accesses},
	}
}

// expandOne expands a request and returns its single job.
func expandOne(t *testing.T, req SweepRequest) allarm.Job {
	t.Helper()
	sweep, err := ExpandSweep(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Len() != 1 {
		t.Fatalf("expected one job, got %d", sweep.Len())
	}
	return sweep.Jobs[0]
}

// validCheckpointBlob runs the job to mid-flight and snapshots it — a
// genuine checkpoint to corrupt in the fallback tests.
func validCheckpointBlob(t *testing.T, job allarm.Job) []byte {
	t.Helper()
	ref, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h, err := allarm.StartJob(job)
	if err != nil {
		t.Fatal(err)
	}
	for h.Events() < ref.Events/2 || !h.CanSnapshot() {
		done, err := h.Step(context.Background(), 2048)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("job finished before the snapshot point")
		}
	}
	var buf bytes.Buffer
	if err := h.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillResumeFromCheckpoint is the server-side acceptance check: a
// daemon killed mid-job leaves a machine-state checkpoint behind; its
// successor recovers the sweep, resumes the job from the checkpoint
// (not event zero), marks it "resumed", and the final results are
// byte-identical to an uninterrupted daemon's.
func TestKillResumeFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()
	req := ckptSweepRequest(30_000)

	// Reference: the same sweep on a clean daemon, uninterrupted.
	_, refBase := newTestServer(t, Options{Workers: 1, CacheDir: t.TempDir()})
	refID := submit(t, refBase, req)
	waitDone(t, refBase, refID.ID)
	_, refCSV := get(t, refBase+"/v1/sweeps/"+refID.ID+"/results?format=csv")

	// Daemon 1: checkpointing on; kill it as soon as a checkpoint lands.
	s1, base1 := newTestServer(t, Options{
		Workers: 1, CacheDir: dir, CheckpointInterval: 4096,
	})
	sr := submit(t, base1, req)
	ckptDir := filepath.Join(dir, "jobckpts")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if names, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint was written")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close() // hard kill: no drain, the job dies mid-window

	// Daemon 2, same directory: boot recovery re-enqueues the sweep and
	// the checkpoint-aware runner resumes from the persisted snapshot.
	s2, base2 := newTestServer(t, Options{
		Workers: 1, CacheDir: dir, CheckpointInterval: 4096,
	})
	v := waitDone(t, base2, sr.ID)
	if v.Status != StatusDone {
		t.Fatalf("recovered sweep: %+v", v)
	}
	if !v.Jobs[0].Resumed {
		t.Errorf("job not marked resumed: %+v", v.Jobs[0])
	}
	if got := s2.met.jobsResumed.Load(); got == 0 {
		t.Errorf("jobs_resumed = %d, want >= 1", got)
	}
	_, csv := get(t, base2+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("resumed results differ from uninterrupted run:\n%s\nvs\n%s", csv, refCSV)
	}
	// The completed job's checkpoint is gone — nothing to resume next time.
	if names, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt")); len(names) != 0 {
		t.Errorf("stale checkpoint files after completion: %v", names)
	}
}

// uploadTrace posts a captured trace and returns its workload name
// ("trace:<content hash>" — identical across daemons for one capture).
func uploadTrace(t *testing.T, base string, trace []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr.Workload
}

// TestKillResumeTraceWorkload is the same acceptance check for the
// second workload class: a job replaying an uploaded trace resumes from
// its checkpoint after a kill, byte-identically.
func TestKillResumeTraceWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "ckpt-trace", Threads: 2, Key: "ckpt-trace-v1",
		Stream: func(thread int, seed uint64) allarm.Stream {
			n := 0
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if n >= 30_000 {
					return allarm.Access{}, false
				}
				n++
				return allarm.Access{VAddr: uint64(0x10000*thread + 64*(n%4096)), Write: n%3 == 0}, true
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

	// Reference: uninterrupted run of the same trace on a clean daemon.
	_, refBase := newTestServer(t, Options{Workers: 1, CacheDir: t.TempDir()})
	refReq := SweepRequest{Workloads: []string{uploadTrace(t, refBase, trace.Bytes())}, Policies: []string{"allarm"}}
	refID := submit(t, refBase, refReq)
	waitDone(t, refBase, refID.ID)
	_, refCSV := get(t, refBase+"/v1/sweeps/"+refID.ID+"/results?format=csv")

	dir := t.TempDir()
	s1, base1 := newTestServer(t, Options{
		Workers: 1, CacheDir: dir, CheckpointInterval: 4096,
	})
	req := SweepRequest{Workloads: []string{uploadTrace(t, base1, trace.Bytes())}, Policies: []string{"allarm"}}
	sr := submit(t, base1, req)
	ckptDir := filepath.Join(dir, "jobckpts")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if names, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint was written")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	// The restarted daemon re-resolves the persisted trace upload and
	// resumes the replay from the checkpoint.
	s2, base2 := newTestServer(t, Options{
		Workers: 1, CacheDir: dir, CheckpointInterval: 4096,
	})
	v := waitDone(t, base2, sr.ID)
	if v.Status != StatusDone || !v.Jobs[0].Resumed {
		t.Fatalf("recovered trace sweep did not resume: %+v", v)
	}
	if s2.met.jobsResumed.Load() == 0 {
		t.Errorf("jobs_resumed = 0 after trace resume")
	}
	_, csv := get(t, base2+"/v1/sweeps/"+sr.ID+"/results?format=csv")
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("resumed trace results differ from uninterrupted run:\n%s\nvs\n%s", csv, refCSV)
	}
}

// TestCorruptCheckpointFallsBack mirrors the disk store's corruption
// suite for machine-state checkpoints: a corrupted, truncated,
// version-skewed or short-written checkpoint file must be rejected and
// the job re-simulated from scratch — correct results, no resume flag,
// bad file removed.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	req := ckptSweepRequest(2_000)
	job := expandOne(t, req)
	blob := validCheckpointBlob(t, job)

	corruptions := map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"garbage":   func(b []byte) []byte { return []byte("not a checkpoint at all") },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"short-write": func(b []byte) []byte {
			// A crash mid-write without the rename discipline: all but the
			// final CRC bytes made it out.
			return b[:len(b)-3]
		},
		"bit-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/3] ^= 0x40
			return c
		},
		"version-skew": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4]++ // format version field
			return c
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, base := newTestServer(t, Options{
				Workers: 1, CacheDir: dir, CheckpointInterval: 1 << 20,
			})
			path := s.checkpointPath(job.Key())
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			sr := submit(t, base, req)
			v := waitDone(t, base, sr.ID)
			if v.Status != StatusDone || v.Jobs[0].Status != JobDone {
				t.Fatalf("sweep with corrupt checkpoint: %+v", v)
			}
			if v.Jobs[0].Resumed {
				t.Errorf("corrupt checkpoint produced resumed=true")
			}
			if s.met.jobsResumed.Load() != 0 {
				t.Errorf("jobs_resumed bumped for a rejected checkpoint")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("rejected checkpoint not removed")
			}
		})
	}

	// Control: the untouched blob actually resumes, so the corruption
	// cases above prove rejection rather than the file being ignored.
	t.Run("valid-control", func(t *testing.T) {
		dir := t.TempDir()
		s, base := newTestServer(t, Options{
			Workers: 1, CacheDir: dir, CheckpointInterval: 1 << 20,
		})
		path := s.checkpointPath(job.Key())
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		// No route reads or plants checkpoints: a client that could POST
		// one would have the next run resume from it and cache the result
		// under the job's content key.
		ckptURL := base + "/v1/checkpoints/" + filepath.Base(path)
		if resp, _ := get(t, ckptURL); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", ckptURL, resp.StatusCode)
		}
		resp, err := http.Post(ckptURL, "application/octet-stream", strings.NewReader("planted"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", ckptURL, resp.StatusCode)
		}
		sr := submit(t, base, req)
		v := waitDone(t, base, sr.ID)
		if v.Status != StatusDone || !v.Jobs[0].Resumed {
			t.Fatalf("valid checkpoint did not resume: %+v", v)
		}
		if s.met.jobsResumed.Load() != 1 {
			t.Errorf("jobs_resumed = %d, want 1", s.met.jobsResumed.Load())
		}
	})
}

// TestCoalescedResumeMarksEverySweep: two sweeps coalesced onto one
// execution that resumes from a checkpoint both report the job as
// resumed, as both timelines do.
func TestCoalescedResumeMarksEverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	req := ckptSweepRequest(30_000)
	job := expandOne(t, req)
	blob := validCheckpointBlob(t, job)
	s, base := newTestServer(t, Options{Workers: 1, CacheDir: t.TempDir(), CheckpointInterval: 1 << 20})
	if err := os.WriteFile(s.checkpointPath(job.Key()), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Hold the only pool slot until both sweeps are running the job: the
	// first leads the flight, the second follows it.
	s.sem <- struct{}{}
	ids := []string{submit(t, base, req).ID, submit(t, base, req).ID}
	for _, id := range ids {
		waitJob(t, base, id, 0, JobRunning)
	}
	<-s.sem
	for _, id := range ids {
		if v := waitDone(t, base, id); v.Status != StatusDone || !v.Jobs[0].Resumed {
			t.Errorf("sweep %s: %+v, want done and resumed", id, v.Jobs[0])
		}
	}
	if got := s.met.jobsResumed.Load(); got != 1 {
		t.Errorf("jobs_resumed = %d, want 1 (one execution)", got)
	}
}

// TestCheckpointIntervalNeedsCacheDir: job checkpoints live only under
// <CacheDir>/jobckpts, so asking for them without a cache directory is
// a configuration error rather than a daemon that silently cannot
// resume.
func TestCheckpointIntervalNeedsCacheDir(t *testing.T) {
	s, err := New(Options{Workers: 1, CheckpointInterval: 4096})
	if err == nil {
		s.Close()
		t.Fatal("New accepted CheckpointInterval without CacheDir")
	}
}

// TestKeyFileNamesStable pins the on-disk names of a result-store entry
// and a job checkpoint for one key, so a cache directory written by an
// older daemon stays readable.
func TestKeyFileNamesStable(t *testing.T) {
	const hex = "ed496d2b008580870e811c61d6b11278964475c3f414d464ce034e9c66051608" // sha256("some-job-key")
	if got := objectName("some-job-key"); got != hex+".json" {
		t.Errorf("result entry name %q, want %q", got, hex+".json")
	}
	s := &Server{jobCkptDir: "ckpts"}
	if got, want := s.checkpointPath("some-job-key"), filepath.Join("ckpts", hex+".ckpt"); got != want {
		t.Errorf("checkpoint path %q, want %q", got, want)
	}
}

// TestPreemptionYieldsSlot pins checkpoint-based preemption: with one
// worker, a long checkpointing job yields its slot to a freshly
// submitted short job at a checkpoint boundary, then resumes and both
// finish correctly.
func TestPreemptionYieldsSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := t.TempDir()
	s, base := newTestServer(t, Options{
		Workers: 1, CacheDir: dir, CheckpointInterval: 2048,
	})
	long := submit(t, base, ckptSweepRequest(40_000))
	waitJob(t, base, long.ID, 0, JobRunning)
	short := submit(t, base, SweepRequest{
		Benchmarks: []string{"barnes"},
		Policies:   []string{"baseline"},
		Config:     &ConfigOverrides{Threads: 2, AccessesPerThread: 200},
	})
	sv := waitDone(t, base, short.ID)
	lv := waitDone(t, base, long.ID)
	if sv.Status != StatusDone || lv.Status != StatusDone {
		t.Fatalf("sweeps did not finish: short %+v long %+v", sv, lv)
	}
	if got := s.met.jobsPreempted.Load(); got == 0 {
		t.Errorf("jobs_preempted = 0; the long job never yielded")
	}
	if got := s.met.checkpointsWritten.Load(); got == 0 {
		t.Errorf("checkpoints_written = 0 with checkpointing on")
	}
	var m Metrics
	_, body := get(t, base+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.JobsPreempted != s.met.jobsPreempted.Load() || m.CheckpointsWritten == 0 || m.CheckpointBytes == 0 {
		t.Errorf("metrics endpoint does not expose checkpoint counters: %+v", m)
	}
}
