package allarm_test

import (
	"bytes"
	"context"
	"testing"

	allarm "allarm"
)

// resumeTestConfig keeps resume tests fast but non-trivial.
func resumeTestConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.Threads = 4
	cfg.AccessesPerThread = 4_000
	return cfg
}

// driveToEnd steps a handle to completion and returns its result.
func driveToEnd(t *testing.T, h *allarm.RunHandle) *allarm.Result {
	t.Helper()
	for {
		done, err := h.Step(context.Background(), 0)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			res, err := h.Result()
			if err != nil {
				t.Fatalf("Result: %v", err)
			}
			return res
		}
	}
}

// snapshotMidway steps in windows until roughly half the reference
// event count, then snapshots.
func snapshotMidway(t *testing.T, h *allarm.RunHandle, half uint64) []byte {
	t.Helper()
	// Snapshots are only legal inside the measured region, so keep
	// stepping while CanSnapshot is false (the half-way point may land
	// in warmup, which is not checkpointable by design).
	for h.Events() < half || !h.CanSnapshot() {
		done, err := h.Step(context.Background(), 4096)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			t.Fatalf("run completed before the snapshot point")
		}
	}
	var buf bytes.Buffer
	if err := h.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// checkResumeBitIdentical is the facade-level acceptance check for one
// job: Job.RunCtx, a stepwise run, and a snapshot-then-resume run must all
// produce the bit-identical Result, and the resumed run must not
// re-simulate the pre-checkpoint events.
func checkResumeBitIdentical(t *testing.T, job allarm.Job) {
	t.Helper()
	ref, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refJSON := marshalResult(t, ref)

	h, err := allarm.StartJob(job)
	if err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	blob := snapshotMidway(t, h, ref.Events/2)
	preEvents := h.Events()
	stepped := driveToEnd(t, h)
	if got := marshalResult(t, stepped); !bytes.Equal(refJSON, got) {
		t.Fatalf("stepwise result differs from Job.RunCtx:\n%s\n%s", refJSON, got)
	}

	r, err := allarm.ResumeJob(job, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	if r.Events() != preEvents {
		t.Fatalf("resumed handle reports %d events, snapshot had %d", r.Events(), preEvents)
	}
	resumed := driveToEnd(t, r)
	if got := marshalResult(t, resumed); !bytes.Equal(refJSON, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\n%s", refJSON, got)
	}
}

// TestResumeBenchmarkBitIdentical covers the preset-benchmark job path
// under both paper policies.
func TestResumeBenchmarkBitIdentical(t *testing.T) {
	for _, pol := range []allarm.Policy{allarm.Baseline, allarm.ALLARM} {
		t.Run(string(pol), func(t *testing.T) {
			cfg := resumeTestConfig()
			cfg.Policy = pol
			checkResumeBitIdentical(t, allarm.Job{Benchmark: "ocean-cont", Config: cfg})
		})
	}
}

// TestResumeStatefulPolicy covers the registry path with per-directory
// mutable policy state (allarm-hyst): the hysteresis sets must ride
// along in the checkpoint or resumed decisions diverge.
func TestResumeStatefulPolicy(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Policy = allarm.ALLARMHyst
	checkResumeBitIdentical(t, allarm.Job{Benchmark: "barnes", Config: cfg})
}

// TestResumeTraceWorkload covers the first-class Workload path with a
// captured trace — the second acceptance workload class.
func TestResumeTraceWorkload(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Policy = allarm.ALLARM
	src, err := allarm.BenchmarkWorkload("cholesky", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatalf("BenchmarkWorkload: %v", err)
	}
	var traceBuf bytes.Buffer
	if err := allarm.CaptureTrace(&traceBuf, src, cfg.Seed); err != nil {
		t.Fatalf("CaptureTrace: %v", err)
	}
	// The resume contract requires rebuilding the same workload; a trace
	// read twice from the same bytes is exactly that.
	wl, err := allarm.ReadTraceNamed(bytes.NewReader(traceBuf.Bytes()), "resume-trace")
	if err != nil {
		t.Fatalf("ReadTraceNamed: %v", err)
	}
	checkResumeBitIdentical(t, allarm.Job{Workload: wl, Config: cfg})
}

// TestResumeMultiProcess covers the Figure 4 multi-process job path.
func TestResumeMultiProcess(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Policy = allarm.ALLARM
	mp := allarm.DefaultMultiProcess()
	checkResumeBitIdentical(t, allarm.Job{Benchmark: "ocean-cont", Config: cfg, MultiProcess: &mp})
}

// TestResumeRejectsWrongJob verifies the fingerprint binding: a
// checkpoint from one job must not resume a different one.
func TestResumeRejectsWrongJob(t *testing.T) {
	cfg := resumeTestConfig()
	job := allarm.Job{Benchmark: "ocean-cont", Config: cfg}
	ref, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	h, err := allarm.StartJob(job)
	if err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	blob := snapshotMidway(t, h, ref.Events/2)

	other := job
	other.Config.Seed++
	if _, err := allarm.ResumeJob(other, bytes.NewReader(blob)); err == nil {
		t.Fatalf("checkpoint resumed under a different job")
	}

	// And corrupted checkpoints are refused, not half-applied.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x10
	if _, err := allarm.ResumeJob(job, bytes.NewReader(bad)); err == nil {
		t.Fatalf("corrupted checkpoint resumed")
	}
}
