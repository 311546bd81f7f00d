package allarm_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	allarm "allarm"
)

// tinyConfig is the smallest configuration worth simulating, for sweep
// mechanics tests that need real runs.
func tinyConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.AccessesPerThread = 1_000
	return cfg
}

func TestSweepCombinatorOrder(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossBenchmarks("barnes", "x264").
		CrossPolicies(allarm.Baseline, allarm.ALLARM).
		CrossPFSizes(64<<10, 32<<10)
	if s.Len() != 8 {
		t.Fatalf("len = %d, want 8", s.Len())
	}
	// Earlier combinators vary slower: benchmark-major, then policy,
	// then PF size.
	want := []struct {
		bench string
		pol   allarm.Policy
		pf    int
	}{
		{"barnes", allarm.Baseline, 64 << 10},
		{"barnes", allarm.Baseline, 32 << 10},
		{"barnes", allarm.ALLARM, 64 << 10},
		{"barnes", allarm.ALLARM, 32 << 10},
		{"x264", allarm.Baseline, 64 << 10},
		{"x264", allarm.Baseline, 32 << 10},
		{"x264", allarm.ALLARM, 64 << 10},
		{"x264", allarm.ALLARM, 32 << 10},
	}
	for i, w := range want {
		j := s.Jobs[i]
		if j.Benchmark != w.bench || j.Config.Policy != w.pol || j.Config.PFBytes != w.pf {
			t.Fatalf("job %d = %s/%v/%d, want %s/%v/%d",
				i, j.Benchmark, j.Config.Policy, j.Config.PFBytes, w.bench, w.pol, w.pf)
		}
	}
}

func TestSweepDedup(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(allarm.Job{Benchmark: "barnes", Config: cfg})
	s.Add(s.Jobs...) // duplicate everything
	s.Add(allarm.Job{Benchmark: "x264", Config: cfg})
	mp := allarm.DefaultMultiProcess()
	// Same benchmark+config but multi-process mode: not a duplicate.
	s.Add(allarm.Job{Benchmark: "barnes", Config: cfg, MultiProcess: &mp})
	if s.Dedup().Len() != 3 {
		t.Fatalf("dedup len = %d, want 3", s.Len())
	}
	if s.Jobs[0].Benchmark != "barnes" || s.Jobs[1].Benchmark != "x264" || s.Jobs[2].MultiProcess == nil {
		t.Fatalf("dedup changed order: %v", s.Jobs)
	}
}

// TestSweepDeterministicAcrossParallelism is the core contract: the same
// spec produces identical results in spec order at every parallelism.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	cfg := tinyConfig()
	spec := func() *allarm.Sweep {
		return allarm.NewSweep(allarm.Job{Config: cfg}).
			CrossBenchmarks("barnes", "ocean-cont", "cholesky").
			CrossPolicies(allarm.Baseline, allarm.ALLARM)
	}
	serial, err := (&allarm.Runner{Parallelism: 1}).Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{2, 8}
	if testing.Short() {
		levels = []int{8}
	}
	for _, par := range levels {
		parallel, err := (&allarm.Runner{Parallelism: par}).Run(context.Background(), spec())
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(parallel), len(serial))
		}
		for i := range serial {
			a, b := serial[i], parallel[i]
			if a.Job.Benchmark != b.Job.Benchmark || a.Job.Config.Policy != b.Job.Config.Policy {
				t.Fatalf("parallelism %d: result %d out of spec order", par, i)
			}
			if a.Err != nil || b.Err != nil {
				t.Fatalf("parallelism %d: unexpected error %v / %v", par, a.Err, b.Err)
			}
			x, y := a.Result, b.Result
			if x.RuntimeNs != y.RuntimeNs || x.NoCBytes != y.NoCBytes ||
				x.PFEvictions != y.PFEvictions || x.PFAllocs != y.PFAllocs ||
				x.L2Misses != y.L2Misses || x.NoCEnergyPJ != y.NoCEnergyPJ {
				t.Fatalf("parallelism %d: result %d differs from serial run", par, i)
			}
		}
	}
}

// TestSweepErrorIsolation: one failing job must not lose the others.
func TestSweepErrorIsolation(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(
		allarm.Job{Benchmark: "barnes", Config: cfg},
		allarm.Job{Benchmark: "no-such-benchmark", Config: cfg},
		allarm.Job{Benchmark: "x264", Config: cfg},
	)
	results, err := allarm.RunSweep(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("job 0 lost: %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("bad job did not error")
	}
	if results[2].Err != nil || results[2].Result == nil {
		t.Fatalf("job 2 lost: %+v", results[2])
	}
	if got := allarm.FirstError(results); got != results[1].Err {
		t.Fatalf("FirstError = %v, want %v", got, results[1].Err)
	}
}

// TestSweepCancellation: a cancelled context stops the sweep promptly
// and marks unstarted jobs with the context's error.
func TestSweepCancellation(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossBenchmarks(allarm.Benchmarks()...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	start := time.Now()
	results, err := (&allarm.Runner{Parallelism: 2}).Run(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d = %+v, want cancelled", i, r)
		}
	}
}

// TestSweepCancelMidRun cancels from the progress callback: every job
// claimed afterwards must be skipped with the context's error.
func TestSweepCancelMidRun(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossBenchmarks("barnes", "x264", "cholesky", "dedup")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner := &allarm.Runner{
		Parallelism: 1,
		Progress: func(done, total int, r allarm.SweepResult) {
			if done == 1 {
				cancel()
			}
		},
	}
	results, err := runner.Run(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("first job should have completed: %+v", results[0])
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("job %d = %+v, want cancelled", i, results[i])
		}
	}
}

func TestSweepProgressReporting(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossBenchmarks("barnes", "x264", "cholesky")
	var seen []int
	runner := &allarm.Runner{
		Parallelism: 2,
		Progress: func(done, total int, r allarm.SweepResult) {
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			seen = append(seen, done)
		},
	}
	if _, err := runner.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("progress calls = %v, want 3 calls", seen)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence = %v, want 1,2,3", seen)
		}
	}
}

// TestRunExperimentByteStableAcrossParallelism is the experiment-harness
// acceptance check: the tables ExperimentSweep and RenderExperiment produce are byte-identical
// no matter how many workers execute the underlying sweep (the serial
// pre-sweep runner is the Parallelism=1 case).
func TestRunExperimentByteStableAcrossParallelism(t *testing.T) {
	cfg := tinyConfig()
	ids := []string{"table1", "fig2", "fig3a", "fig4a"}
	if testing.Short() {
		ids = []string{"table1", "fig2"}
	}
	for _, id := range ids {
		var serial, parallel strings.Builder
		if err := experimentTable(context.Background(), &serial, cfg, id, allarm.ALLARM, &allarm.Runner{Parallelism: 1}); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		if err := experimentTable(context.Background(), &parallel, cfg, id, allarm.ALLARM, &allarm.Runner{Parallelism: 8}); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if serial.String() != parallel.String() {
			t.Fatalf("%s output differs between parallelism 1 and 8:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial.String(), parallel.String())
		}
		// And the default (nil) runner matches both.
		var def strings.Builder
		if err := experimentTable(context.Background(), &def, cfg, id, allarm.ALLARM, nil); err != nil {
			t.Fatalf("%s default runner: %v", id, err)
		}
		if def.String() != serial.String() {
			t.Fatalf("%s default-runner output differs from explicit runner output", id)
		}
	}
}

// TestExperimentSweepSpecs sanity-checks the job grids behind each
// figure without running them.
func TestExperimentSweepSpecs(t *testing.T) {
	cfg := tinyConfig()
	nb := len(allarm.Benchmarks())
	nmp := len(allarm.MultiProcessBenchmarks())
	cases := []struct {
		id   string
		want int
	}{
		{"table1", 0},
		{"area", 0},
		{"fig2", nb},
		{"fig3a", 2 * nb},
		{"fig3h", 4 * nb},  // ref + 3 sizes per benchmark
		{"fig4a", 5 * nmp}, // 5 sizes per benchmark; full-size run doubles as ref
		{"fig4f", 6 * nmp}, // ref + 5 sizes per benchmark
	}
	for _, c := range cases {
		s, err := allarm.ExperimentSweep(cfg, c.id, allarm.ALLARM)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if s.Len() != c.want {
			t.Fatalf("%s: %d jobs, want %d", c.id, s.Len(), c.want)
		}
	}
	if _, err := allarm.ExperimentSweep(cfg, "fig99", allarm.ALLARM); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// fig4d-f sweeps run the panel policy, with a baseline reference.
	s, _ := allarm.ExperimentSweep(cfg, "fig4d", allarm.ALLARM)
	if s.Jobs[0].Config.Policy != allarm.Baseline || s.Jobs[1].Config.Policy != allarm.ALLARM {
		t.Fatal("fig4d spec: wrong policies")
	}
	if s.Jobs[0].MultiProcess == nil {
		t.Fatal("fig4d spec: not multi-process")
	}
	// fig4a-c need no extra reference: the full-size baseline grid point
	// is the reference.
	s, _ = allarm.ExperimentSweep(cfg, "fig4a", allarm.ALLARM)
	if s.Jobs[0].Config.Policy != allarm.Baseline || s.Jobs[0].Config.PFBytes != cfg.PFBytes {
		t.Fatal("fig4a spec: first job is not the full-size baseline")
	}
}

// TestMsgPoolRecycleParallelSweep runs concurrent simulations to enforce
// that the message/event free lists are confined to their machine's
// goroutine: each worker owns one machine and its pool, so the
// race detector must stay silent while results stay deterministic. The
// CI race job runs this under -race.
func TestMsgPoolRecycleParallelSweep(t *testing.T) {
	cfg := tinyConfig()
	s := allarm.NewSweep(
		allarm.Job{Benchmark: "ocean-cont", Config: cfg},
		allarm.Job{Benchmark: "blackscholes", Config: cfg},
	).CrossPolicies(allarm.Baseline, allarm.ALLARM)

	serial, err := (&allarm.Runner{Parallelism: 1}).Run(context.Background(), s)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := (&allarm.Runner{Parallelism: 4}).Run(context.Background(), s)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Result.RuntimeNs != parallel[i].Result.RuntimeNs {
			t.Errorf("job %d: runtime %v (serial) != %v (parallel)",
				i, serial[i].Result.RuntimeNs, parallel[i].Result.RuntimeNs)
		}
	}
}
