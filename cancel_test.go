package allarm_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	allarm "allarm"
)

// cancelTestConfig is a small-but-not-trivial configuration: long
// enough that a mid-run cancellation reliably lands while the
// simulation is executing, short enough to keep the suite fast.
func cancelTestConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.Threads = 8
	cfg.AccessesPerThread = 20_000
	return cfg
}

// marshalResult flattens a Result's exported fields for bit-identity
// comparisons (the raw per-node stats are excluded by design: they are
// not part of the serialisable surface).
func marshalResult(t *testing.T, r *allarm.Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunCtxCancelMidSimulation is the cancel-mid-run contract: a
// cancelled RunCtx returns promptly with a well-formed partial Result
// and a cancellation error, and re-running the same job from a clean
// start still produces the bit-identical complete result.
func TestRunCtxCancelMidSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	cfg := cancelTestConfig()
	job := allarm.Job{Benchmark: "ocean-cont", Config: cfg}

	// Reference: the complete run.
	ref, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Cancel mid-flight: the abort must land while events are firing.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var (
		partial *allarm.Result
		runErr  error
	)
	start := time.Now()
	go func() {
		defer close(done)
		partial, runErr = job.RunCtx(ctx)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunCtx did not return after cancellation")
	}
	elapsed := time.Since(start)

	if runErr == nil {
		t.Skip("simulation finished before the cancellation landed; nothing to assert")
	}
	if !allarm.IsCancellation(runErr) {
		t.Fatalf("err = %v, want a cancellation", runErr)
	}
	if partial == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if !partial.Partial {
		t.Fatal("partial result not marked Partial")
	}
	// Well-formed: identified, bounded by the complete run, no negative
	// or absurd values.
	if partial.Benchmark != ref.Benchmark || partial.PolicyUsed != ref.PolicyUsed {
		t.Errorf("partial identity %s/%s, want %s/%s", partial.Benchmark, partial.PolicyUsed, ref.Benchmark, ref.PolicyUsed)
	}
	if partial.RuntimeNs < 0 {
		t.Errorf("partial runtime %v < 0", partial.RuntimeNs)
	}
	if partial.Events >= ref.Events {
		t.Errorf("partial fired %d events, complete run fired %d — not partial", partial.Events, ref.Events)
	}
	if partial.Accesses > ref.Accesses {
		t.Errorf("partial issued %d accesses, complete run issued %d", partial.Accesses, ref.Accesses)
	}
	if raw := partial.Raw(); raw == nil || len(raw.PerThreadTime) != cfg.Threads {
		t.Errorf("partial raw stats malformed: %+v", raw)
	} else {
		for i, pt := range raw.PerThreadTime {
			if pt < 0 {
				t.Errorf("thread %d: negative partial time %v", i, pt)
			}
		}
	}
	// Prompt: the abort may not take anywhere near a full simulation
	// (the complete reference run took much longer than this bound).
	if elapsed > 10*time.Second {
		t.Errorf("cancelled run took %v to return", elapsed)
	}

	// Deterministic re-run from a clean start: bit-identical to the
	// reference, unperturbed by the aborted attempt.
	rerun, err := job.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalResult(t, ref), marshalResult(t, rerun); string(a) != string(b) {
		t.Errorf("re-run after cancellation differs from reference:\n%s\n%s", a, b)
	}
}

// TestRunCtxPreCancelled: a context cancelled before the run starts
// aborts immediately with a cancellation error.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancelTestConfig()
	wl, err := allarm.BenchmarkWorkload("ocean-cont", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	res, err := allarm.Job{Workload: wl, Config: cfg}.RunCtx(ctx)
	if !allarm.IsCancellation(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if res != nil && !res.Partial {
		t.Fatalf("pre-cancelled run returned a non-partial result: %+v", res)
	}
}

// TestRunnerCancelDistinguishesAbortedFromSkipped: cancelling a sweep
// aborts the executing job (partial result attached) and skips the
// queued one (error only), and SweepResult.Aborted tells them apart.
func TestRunnerCancelDistinguishesAbortedFromSkipped(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	cfg := cancelTestConfig()
	sweep := allarm.NewSweep(allarm.Job{Benchmark: "ocean-cont", Config: cfg}).
		CrossPolicies(allarm.Baseline, allarm.ALLARM)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	runner := &allarm.Runner{
		Parallelism: 1, // job 1 queues behind job 0
		Start: func(index, total int, job allarm.Job) {
			if index == 0 {
				close(started)
			}
		},
	}
	go func() {
		<-started
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	results, runErr := runner.Run(ctx, sweep)
	if !allarm.IsCancellation(runErr) {
		t.Fatalf("Run error = %v, want a cancellation", runErr)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	r0, r1 := results[0], results[1]
	if r0.Err == nil {
		t.Skip("job 0 finished before the cancellation landed; nothing to assert")
	}
	if !r0.Aborted() {
		t.Errorf("executing job not reported aborted: result=%v err=%v", r0.Result != nil, r0.Err)
	}
	if r0.Result == nil || !r0.Result.Partial {
		t.Errorf("aborted job carries no partial result")
	}
	if r1.Err == nil || r1.Result != nil || r1.Aborted() {
		t.Errorf("queued job should be skipped with error only: result=%v err=%v", r1.Result, r1.Err)
	}
}
