package allarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"allarm/internal/system"
)

// JobFingerprint returns the stable identity a checkpoint is bound to:
// a hex digest over the job's Key and the library Version. A checkpoint
// only resumes a job with the same fingerprint — Key equality means the
// same simulation (see Job.Key), and the Version binding refuses
// cross-version resumes, where bit-identical replay is not guaranteed
// even when the checkpoint format still parses.
func JobFingerprint(j Job) string {
	sum := sha256.Sum256([]byte(Version + "\x00" + j.Key()))
	return "allarm-job:" + hex.EncodeToString(sum[:])
}

// RunHandle is a stepwise simulation run; Job.RunCtx steps one to
// completion. StartJob opens one from scratch, ResumeJob from a
// checkpoint; Step advances it in bounded windows between which the
// run may be snapshotted (Snapshot), abandoned, or preempted and later
// resumed in a different process or on a different host. A resumed run
// is bit-identical to an uninterrupted one.
type RunHandle struct {
	job     Job
	m       *system.Machine
	threads []system.ThreadSpec
	name    string // workload name, for error wrapping
	mp      bool   // multi-process job (error wrapping prefix)

	done      bool
	cancelled bool
	err       error
}

// buildRunHandle validates the job and builds its machine: the one
// dispatch over the job kinds (workload, multi-process, preset).
func buildRunHandle(job Job) (*RunHandle, error) {
	h := &RunHandle{job: job}
	switch {
	case job.Workload != nil:
		wl := job.Workload
		if err := job.Config.validateMachine(); err != nil {
			return nil, err
		}
		if n := wl.Threads(); n <= 0 || n > job.Config.Nodes {
			return nil, fmt.Errorf("allarm: workload %q has %d threads; the machine supports [1,%d]",
				wl.Name(), n, job.Config.Nodes)
		}
		m, threads, err := buildWorkloadMachine(job.Config, wl)
		if err != nil {
			return nil, err
		}
		h.m, h.threads, h.name = m, threads, wl.Name()
	case job.MultiProcess != nil:
		m, threads, err := buildMultiProcessMachine(job.Config, *job.MultiProcess, job.Benchmark)
		if err != nil {
			return nil, err
		}
		h.m, h.threads, h.name, h.mp = m, threads, job.Benchmark, true
	default:
		if err := job.Config.Validate(); err != nil {
			return nil, err
		}
		wl, err := BenchmarkWorkload(job.Benchmark, job.Config.Threads, job.Config.AccessesPerThread)
		if err != nil {
			return nil, err
		}
		m, threads, err := buildWorkloadMachine(job.Config, wl)
		if err != nil {
			return nil, err
		}
		h.m, h.threads, h.name = m, threads, wl.Name()
	}
	return h, nil
}

// StartJob validates and builds the job's machine and begins the run.
// Drive it with Step; a completed run yields its metrics from Result.
func StartJob(job Job) (*RunHandle, error) {
	h, err := buildRunHandle(job)
	if err != nil {
		return nil, err
	}
	if err := h.m.Start(h.threads); err != nil {
		return nil, h.wrap(err)
	}
	return h, nil
}

// ResumeJob rebuilds the job's machine and loads a checkpoint written
// by Snapshot, verifying the checkpoint belongs to this exact job (and
// library version) before resuming. The simulation continues from the
// snapshotted instant: events already simulated are not re-simulated,
// and the final Result is bit-identical to an uninterrupted run.
func ResumeJob(job Job, r io.Reader) (*RunHandle, error) {
	h, err := buildRunHandle(job)
	if err != nil {
		return nil, err
	}
	meta, err := h.m.Restore(r, h.threads)
	if err != nil {
		return nil, fmt.Errorf("allarm: resume %s: %w", h.name, err)
	}
	if want := JobFingerprint(job); meta != want {
		return nil, fmt.Errorf("allarm: checkpoint belongs to a different job or version (fingerprint %s, want %s)", meta, want)
	}
	return h, nil
}

// wrap attaches the run's identity to an error ("allarm: <name>
// (<policy>): ..." / "allarm: multi-process ...").
func (h *RunHandle) wrap(err error) error {
	if h.mp {
		return fmt.Errorf("allarm: multi-process %s (%v): %w", h.name, h.job.Config.Policy, err)
	}
	return fmt.Errorf("allarm: %s (%v): %w", h.name, h.job.Config.Policy, err)
}

// Step advances the run by at most window simulation events (0 = run
// until completion or the machine's event budget) and reports whether
// it completed. A window boundary is a safe snapshot point. On
// cancellation Step returns the wrapped cancellation error, and Partial
// returns the statistics collected so far.
func (h *RunHandle) Step(ctx context.Context, window uint64) (bool, error) {
	if h.err != nil {
		return false, h.err
	}
	if h.done {
		return true, nil
	}
	done, err := h.m.StepCtx(ctx, window)
	if err != nil {
		h.err = h.wrap(err)
		h.cancelled = IsCancellation(err)
		return false, h.err
	}
	h.done = done
	return done, nil
}

// Events returns the total simulation events fired so far (across a
// resume, this includes the events of the pre-checkpoint segment — they
// were restored, not re-simulated).
func (h *RunHandle) Events() uint64 { return h.m.Engine().Fired() }

// CanSnapshot reports whether the run is at a snapshottable point: at a
// Step boundary inside the measured region, with the invariant checker
// off. During warmup it returns false; step further and retry.
func (h *RunHandle) CanSnapshot() bool {
	return !h.done && h.err == nil && h.m.CanSnapshot()
}

// Snapshot writes a checkpoint of the paused run to w, tagged with the
// job's fingerprint. The run is not perturbed; Step continues it.
func (h *RunHandle) Snapshot(w io.Writer) error {
	if h.done || h.err != nil {
		return fmt.Errorf("allarm: snapshot of a finished run")
	}
	if err := h.m.Snapshot(w, JobFingerprint(h.job)); err != nil {
		return h.wrap(err)
	}
	return nil
}

// Result finalizes a completed run (Step returned done) and returns its
// metrics.
func (h *RunHandle) Result() (*Result, error) {
	if !h.done {
		return nil, fmt.Errorf("allarm: Result before the run completed")
	}
	rr, err := h.m.Finish()
	if err != nil {
		return nil, h.wrap(err)
	}
	return newResult(h.name, h.job.Config.Policy, rr), nil
}

// Partial returns the statistics collected up to the abort instant of a
// cancelled run (Partial == true). It returns nil when the run was not
// cancelled.
func (h *RunHandle) Partial() *Result {
	if !h.cancelled {
		return nil
	}
	res := newResult(h.name, h.job.Config.Policy, h.m.Collect())
	res.Partial = true
	return res
}
