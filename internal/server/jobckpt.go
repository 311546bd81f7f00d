package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	allarm "allarm"
)

// checkpointName maps a job key to its machine-state checkpoint file
// name: the same sha256 content addressing as the result store, with a
// distinct extension so the two namespaces can never collide.
func checkpointName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".ckpt"
}

// checkpointPath returns the on-disk path of a job's checkpoint.
func (s *Server) checkpointPath(key string) string {
	return filepath.Join(s.jobCkptDir, checkpointName(key))
}

// runCheckpointed is the default job runner when machine-state
// checkpointing is configured: it drives the simulation in
// CheckpointInterval-event windows, writing a whole-machine snapshot at
// every window boundary inside the measured region. A fresh run first
// looks for a persisted checkpoint of the same job — left by a killed
// predecessor or a preempted run — and resumes from it instead of
// simulating from event zero; resumed results are bit-identical to
// uninterrupted ones (the resume contract is golden-tested in the root
// package). Invalid checkpoints — corrupt, truncated, version-skewed,
// or belonging to a different job — are discarded with a log line and
// the job re-simulates from scratch: a checkpoint is an optimization,
// never a correctness dependency.
//
// Between windows the runner also cooperates with the worker pool: when
// another job is blocked waiting for a slot (s.waiting), the freshly
// checkpointed run yields its slot and re-acquires one afterwards —
// checkpoint-based preemption, so a long simulation cannot starve short
// ones behind it. The preempted run loses no work: it continues from
// its in-memory state, and the just-written checkpoint covers a crash
// while it waits.
func (s *Server) runCheckpointed(ctx context.Context, job allarm.Job) (*allarm.Result, error) {
	path := s.checkpointPath(job.Key())
	h, resumed, err := s.openOrResume(job, path)
	if err != nil {
		return nil, err
	}
	if resumed {
		s.met.jobsResumed.Add(1)
		s.jobEvent(job.Key(), "resumed", fmt.Sprintf("from checkpoint at %d events", h.Events()))
		s.logf("job %s: resumed from checkpoint at %d events", checkpointName(job.Key()), h.Events())
	}
	// buf holds each snapshot on its way to disk; reusing it sizes every
	// snapshot's buffer from the previous one.
	var buf bytes.Buffer
	for {
		done, err := h.Step(ctx, s.ckptInterval)
		if err != nil {
			// Partial is non-nil exactly for cancellations, matching
			// Job.RunCtx's aborted-job contract; the checkpoint stays on
			// disk so the next daemon resumes instead of re-simulating.
			return h.Partial(), err
		}
		if done {
			res, err := h.Result()
			if err != nil {
				return nil, err
			}
			os.Remove(path) // complete results live in the result store
			return res, nil
		}
		if !h.CanSnapshot() {
			continue // warmup: not a checkpointable boundary
		}
		if s.writeJobCheckpoint(h, path, &buf) {
			s.jobEvent(job.Key(), "checkpointed", fmt.Sprintf("at %d events", h.Events()))
		}
		if s.waiting.Load() > 0 {
			// Yield the pool slot to a waiting job. Blocked senders queue
			// FIFO, so the waiter that triggered the yield gets the slot
			// before we re-acquire one. The invariant that runJob holds a
			// slot from entry to return (lead acquires and releases it) is
			// preserved: we always block until we hold one again.
			s.met.jobsPreempted.Add(1)
			s.jobEvent(job.Key(), "preempted", "yielded pool slot at checkpoint boundary")
			<-s.sem
			s.sem <- struct{}{}
		}
	}
}

// openOrResume opens a run handle for the job: resumed from its
// persisted checkpoint when one exists and is valid, from scratch
// otherwise. A rejected checkpoint (corruption, truncation, version
// skew, wrong job) is deleted so it is not re-tried on every run.
func (s *Server) openOrResume(job allarm.Job, path string) (*allarm.RunHandle, bool, error) {
	if data, err := os.ReadFile(path); err == nil {
		h, rerr := allarm.ResumeJob(job, bytes.NewReader(data))
		if rerr == nil {
			return h, true, nil
		}
		s.logf("job checkpoint %s: %v; re-simulating from scratch", filepath.Base(path), rerr)
		os.Remove(path)
	}
	h, err := allarm.StartJob(job)
	return h, false, err
}

// writeJobCheckpoint snapshots the paused run to its checkpoint file
// through buf, reporting whether a checkpoint was persisted. Failures are
// logged, never fatal: durability degrades, the simulation does not.
func (s *Server) writeJobCheckpoint(h *allarm.RunHandle, path string, buf *bytes.Buffer) bool {
	start := time.Now()
	buf.Reset()
	if err := h.Snapshot(buf); err != nil {
		s.logf("job checkpoint %s: snapshot: %v", filepath.Base(path), err)
		return false
	}
	if err := atomicWrite(path, buf.Bytes()); err != nil {
		s.logf("job checkpoint %s: write: %v", filepath.Base(path), err)
		return false
	}
	s.met.checkpointsWritten.Add(1)
	s.met.checkpointBytes.Add(uint64(buf.Len()))
	s.met.ckptWrite.ObserveSince(start)
	s.met.ckptSize.Observe(uint64(buf.Len()))
	return true
}
