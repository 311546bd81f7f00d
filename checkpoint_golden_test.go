package allarm_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	allarm "allarm"
)

// goldenCheckpointPath is a machine-state checkpoint written by an
// earlier build (commit c2fe075, the last with the sharded event
// engine) through StartJob/Step/Snapshot on goldenCheckpointJob, at the
// boundary goldenSnapshot picks. Its fingerprint binds it to Version: a
// Version bump needs the fixture rewritten by the build just before the
// bump, so that it still proves the format survived the bump's changes.
var goldenCheckpointPath = filepath.Join("testdata", "barnes-2x2.alck")

// goldenCheckpointJob is a small job behind the fixture: barnes on a
// 2×2 mesh under ALLARM, a few hundred accesses per thread, with caches
// shrunk (Table I ratios kept) so the fixture stays small.
func goldenCheckpointJob() allarm.Job {
	cfg := allarm.ExperimentConfig()
	cfg.Nodes, cfg.MeshW, cfg.MeshH = 4, 2, 2
	cfg.L1Bytes, cfg.L2Bytes, cfg.PFBytes = 2<<10, 16<<10, 32<<10
	cfg.Threads = 4
	cfg.AccessesPerThread = 300
	cfg.Policy = allarm.ALLARM
	return allarm.Job{Benchmark: "barnes", Config: cfg}
}

// goldenSnapshot starts the job and snapshots it at the first
// 256-event Step boundary inside the measured region.
func goldenSnapshot(t *testing.T, job allarm.Job) []byte {
	t.Helper()
	h, err := allarm.StartJob(job)
	if err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	for !h.CanSnapshot() {
		done, err := h.Step(context.Background(), 256)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			t.Fatal("run completed before the measured region could be snapshotted")
		}
	}
	var buf bytes.Buffer
	if err := h.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestResumeGoldenCheckpoint pins the machine-state ALCK format, not
// just its container: the committed checkpoint must resume and finish
// bit-identically to an uninterrupted run, and a snapshot taken at the
// same boundary today must reproduce its bytes.
func TestResumeGoldenCheckpoint(t *testing.T) {
	job := goldenCheckpointJob()
	golden, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	h, err := allarm.ResumeJob(job, bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	if want, got := marshalResult(t, ref), marshalResult(t, driveToEnd(t, h)); !bytes.Equal(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\n%s", want, got)
	}

	if !bytes.Equal(goldenSnapshot(t, job), golden) {
		t.Error("a snapshot at the fixture's boundary no longer reproduces its bytes")
	}
}
