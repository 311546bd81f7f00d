// Command allarm-sim is the simulator's command line: it runs one
// workload under one or two policies, regenerates the paper's tables
// and figures, and captures or inspects memory-access traces.
//
// Usage:
//
//	allarm-sim -bench ocean-cont -policy allarm -accesses 60000
//	allarm-sim -bench barnes -pair              # baseline vs -policy
//	allarm-sim -bench barnes -pair -json        # raw records instead
//	allarm-sim -workload trace:barnes.trace -pair  # replay a captured trace
//	allarm-sim -bench dedup -policy allarm-hyst # any registered policy
//	allarm-sim -list                            # benchmarks and policies
//
//	allarm-sim -exp fig3a                       # one table or figure
//	allarm-sim -exp all -parallel 4             # every one (minutes)
//	allarm-sim -exp all -csv > runs.csv         # raw per-run records
//	allarm-sim -exp fig3a -policy allarm-hyst   # another optimised policy
//	allarm-sim -exp fig3a -cpuprofile cpu.pprof -memprofile mem.pprof
//
//	allarm-sim -gen barnes.trace -bench barnes -accesses 10000
//	allarm-sim -info barnes.trace
//
// The workload is either a benchmark preset (-bench, or -workload
// bench:NAME) or a captured trace (-workload trace:FILE). -policy
// accepts any registered directory policy. Every simulation is a sweep
// fanned out over -parallel workers; results are deterministic at any
// parallelism. -pair runs the baseline and -policy (allarm when -policy
// is the baseline) and prints the paper's normalised comparison.
//
// -exp regenerates one experiment id or all of them against the same
// optimised policy -pair uses. The requested experiments' sweeps are
// merged, deduplicated and run once; the output is the series each
// figure plots (normalised as the paper normalises them), or with -json
// or -csv the raw per-simulation records ("table1" and "area" run no
// simulations and contribute no records).
//
// -gen FILE captures -bench at -threads, -accesses and -seed into a
// replayable trace, and -info FILE prints a trace's summary.
//
// Ctrl-C cancels a sweep promptly: finished runs are still emitted,
// with the rest marked cancelled. -cpuprofile and -memprofile write
// pprof profiles covering the run, and -exectrace writes a runtime
// execution trace (go tool trace) of the same span.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
	"allarm/internal/trace"
)

// main only translates run's status into an exit code: os.Exit skips
// deferred functions, and run's defers must execute (pprof.StopCPUProfile
// writes the CPU profile's trailer) even when a run fails or is
// interrupted. Ctrl-C cancels the context every sweep runs under.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, does what they ask, writes results to stdout and
// diagnostics to stderr, and returns the process exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("allarm-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", "ocean-cont", "benchmark name")
		wlFlag     = fs.String("workload", "", "workload spec: bench:NAME or trace:FILE (overrides -bench)")
		policy     = fs.String("policy", "baseline", "directory policy name (see -list)")
		pair       = fs.Bool("pair", false, "run baseline and -policy and compare")
		exp        = fs.String("exp", "", "regenerate an experiment id or 'all' (one of: "+strings.Join(allarm.ExperimentIDs, ", ")+")")
		gen        = fs.String("gen", "", "capture -bench into this trace file")
		info       = fs.String("info", "", "print a trace file's summary")
		accesses   = fs.Int("accesses", 0, "accesses per thread (0 = default)")
		threads    = fs.Int("threads", 0, "thread count (0 = default 16)")
		pfKiB      = fs.Int("pf", 0, "probe filter coverage in KiB (0 = default 512)")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		check      = fs.Bool("check", false, "enable the coherence invariant checker")
		list       = fs.Bool("list", false, "list benchmarks and policies and exit")
		multi      = fs.Int("multi", 0, "run N single-threaded copies instead (Figure 4 mode)")
		fullScale  = fs.Bool("fullscale", false, "use unscaled Table I SRAM sizes")
		parallel   = fs.Int("parallel", 0, "simulation worker count (0 = all cores)")
		jsonOut    = fs.Bool("json", false, "emit raw per-run records as JSON")
		csvOut     = fs.Bool("csv", false, "emit raw per-run records as CSV")
		progress   = fs.Bool("progress", false, "report per-run progress on stderr")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		execTrace  = fs.String("exectrace", "", "write a runtime execution trace to this file")
		logLevel   = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = fs.String("log-format", "text", "log encoding: text or json")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "allarm-sim", allarm.Version)
		return 0
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "allarm-sim:", err)
		return 1
	}

	switch {
	case *list:
		fmt.Fprintln(stdout, "benchmarks:")
		fmt.Fprintln(stdout, "  "+strings.Join(allarm.Benchmarks(), "\n  "))
		fmt.Fprintln(stdout, "policies:")
		fmt.Fprintln(stdout, "  "+strings.Join(allarm.RegisteredPolicies(), "\n  "))
		return 0
	case *info != "":
		if err := printInfo(stdout, *info); err != nil {
			logger.Error("reading trace", "error", err)
			return 1
		}
		return 0
	case *jsonOut && *csvOut:
		logger.Error("-json and -csv are mutually exclusive")
		return 2
	}

	cfg := allarm.ExperimentConfig()
	if *fullScale {
		cfg = allarm.DefaultConfig()
	}
	cfg.Seed = *seed
	cfg.CheckInvariants = *check
	if *accesses > 0 {
		cfg.AccessesPerThread = *accesses
	}
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *pfKiB > 0 {
		cfg.PFBytes = *pfKiB << 10
	}

	pol, err := allarm.ParsePolicy(*policy)
	if err != nil {
		logger.Error("invalid -policy", "error", err)
		return 2
	}
	// The policy compared against the baseline (-pair, -exp): -policy,
	// or ALLARM when -policy is the baseline, keeping the paper's
	// comparison by default.
	opt := pol
	if opt == allarm.Baseline {
		opt = allarm.ALLARM
	}

	job := allarm.Job{Benchmark: *bench, Config: cfg}
	switch {
	case strings.HasPrefix(*wlFlag, "trace:"):
		wl, err := allarm.LoadTrace(strings.TrimPrefix(*wlFlag, "trace:"))
		if err != nil {
			logger.Error("loading trace", "error", err)
			return 1
		}
		job.Workload = wl
	case strings.HasPrefix(*wlFlag, "bench:"):
		job.Benchmark = strings.TrimPrefix(*wlFlag, "bench:")
	case *wlFlag != "":
		logger.Error("-workload wants bench:NAME or trace:FILE", "got", *wlFlag)
		return 2
	}
	if *multi > 0 {
		if job.Workload != nil {
			logger.Error("-multi applies to benchmark presets only")
			return 2
		}
		mp := allarm.DefaultMultiProcess()
		mp.Copies = *multi
		job.MultiProcess = &mp
	}

	if *gen != "" {
		if job.Workload != nil || job.MultiProcess != nil {
			logger.Error("-gen captures a benchmark preset")
			return 2
		}
		if err := capture(*gen, job.Benchmark, cfg); err != nil {
			logger.Error("capturing trace", "error", err)
			return 1
		}
		if err := printInfo(stdout, *gen); err != nil {
			logger.Error("reading trace", "error", err)
			return 1
		}
		return 0
	}

	// Profiles cover the simulation; their deferred stops write the
	// trailers on every exit path.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error(err.Error())
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			logger.Error(err.Error())
			return 1
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				logger.Error(err.Error())
			}
		}()
	}

	runner := &allarm.Runner{Parallelism: *parallel}
	if *progress {
		runner.Progress = func(done, total int, r allarm.SweepResult) {
			logger.Info(fmt.Sprintf("[%d/%d] %s/%s pf=%dkB",
				done, total, r.Job.WorkloadName(), r.Job.Config.Policy, r.Job.Config.PFBytes>>10))
		}
	}
	var raw allarm.Emitter
	switch {
	case *jsonOut:
		raw = allarm.JSONEmitter{Indent: true}
	case *csvOut:
		raw = allarm.CSVEmitter{}
	}

	if *exp != "" {
		return runExperiments(ctx, stdout, logger, runner, raw, cfg, *exp, opt)
	}

	sweep := allarm.NewSweep(job)
	if *pair {
		sweep.CrossPolicies(allarm.Baseline, opt)
	} else {
		sweep.CrossPolicies(pol)
	}
	results, runErr := runner.Run(ctx, sweep)
	if runErr == nil {
		runErr = allarm.FirstError(results)
	}

	// Emit before acting on runErr: on interrupt (or one job failing)
	// the finished runs are still rendered — raw rows carry per-job
	// errors, the human summary prints what completed — and the exit
	// status reports the failure.
	err = nil
	if raw != nil {
		err = raw.Emit(stdout, results)
	} else {
		for _, r := range results {
			// Aborted jobs carry a partial Result alongside their error;
			// the human summary prints completed runs only (the raw
			// -json/-csv rows expose partials, with the error and — in
			// JSON — the aborted flag).
			if r.Result != nil && r.Err == nil {
				print1(stdout, r.Result)
			}
		}
		if *pair && runErr == nil {
			c := allarm.Compare(results[0].Result, results[1].Result)
			fmt.Fprintf(stdout, "speedup            %8.3fx\n", c.Speedup)
			fmt.Fprintf(stdout, "evictions ratio    %8.3f\n", c.EvictionRatio)
			fmt.Fprintf(stdout, "traffic ratio      %8.3f\n", c.TrafficRatio)
			fmt.Fprintf(stdout, "L2 miss ratio      %8.3f\n", c.L2MissRatio)
			fmt.Fprintf(stdout, "NoC energy ratio   %8.3f\n", c.NoCEnergyRatio)
			fmt.Fprintf(stdout, "PF energy ratio    %8.3f\n", c.PFEnergyRatio)
		}
	}
	if err == nil {
		err = runErr
	}
	if err != nil {
		logger.Error("sweep failed", "error", err)
		return 1
	}
	return 0
}

// runExperiments regenerates experiment exp (an id or "all") against
// opt: the experiments' sweeps are merged, deduplicated and run once,
// then emitted as raw records when raw is non-nil, or else rendered
// one table per id from the shared results, looked up by Job.Key.
func runExperiments(ctx context.Context, stdout io.Writer, logger *slog.Logger, runner *allarm.Runner, raw allarm.Emitter, cfg allarm.Config, exp string, opt allarm.Policy) int {
	ids := []string{exp}
	if exp == "all" {
		ids = allarm.ExperimentIDs
	}
	sweeps := make([]*allarm.Sweep, len(ids))
	merged := allarm.NewSweep()
	for i, id := range ids {
		s, err := allarm.ExperimentSweep(cfg, id, opt)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		sweeps[i] = s
		merged.Add(s.Jobs...)
	}
	merged.Dedup()

	start := time.Now()
	results, runErr := runner.Run(ctx, merged)
	logger.Info("sweep finished", "exp", exp, "jobs", merged.Len(),
		"seconds", fmt.Sprintf("%.1f", time.Since(start).Seconds()))

	if raw != nil {
		if err := raw.Emit(stdout, results); err != nil {
			logger.Error(err.Error())
			return 1
		}
		// Per-job failures and cancellation are recorded in the emitted
		// rows; reflect them in the exit status too.
		if runErr != nil || allarm.FirstError(results) != nil {
			return 1
		}
		return 0
	}

	byKey := make(map[string]allarm.SweepResult, len(results))
	for _, r := range results {
		byKey[r.Job.Key()] = r
	}
	for i, id := range ids {
		rs := make([]allarm.SweepResult, sweeps[i].Len())
		for k, j := range sweeps[i].Jobs {
			rs[k] = byKey[j.Key()]
		}
		if err := allarm.FirstError(rs); err != nil {
			logger.Error(id, "error", err)
			return 1
		}
		fmt.Fprintf(stdout, "== %s ==\n", id)
		if err := allarm.RenderExperiment(stdout, cfg, id, opt, rs); err != nil {
			logger.Error(err.Error())
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// capture writes the named benchmark preset at cfg's thread count,
// accesses per thread and seed to a trace file at path.
func capture(path, bench string, cfg allarm.Config) error {
	wl, err := allarm.BenchmarkWorkload(bench, cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := allarm.CaptureTrace(f, wl, cfg.Seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printInfo reads the trace file at path and prints its summary line.
func printInfo(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var records, warmup, writes uint64
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		records++
		if rec.Warmup {
			warmup++
		}
		if rec.Access.Write {
			writes++
		}
	}
	_, err = fmt.Fprintf(w, "%s: v%d, %d threads, %d records (%d warmup), %d placements, %.1f%% writes\n",
		path, r.Version(), r.Threads(), records, warmup, len(r.Placements()),
		100*float64(writes)/float64(records))
	return err
}

// writeHeapProfile writes a heap profile of the live objects to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // profile live objects, not garbage
	return pprof.WriteHeapProfile(f)
}

func print1(w io.Writer, r *allarm.Result) {
	fmt.Fprintf(w, "%s [%s]\n", r.Benchmark, r.PolicyUsed)
	fmt.Fprintf(w, "  runtime          %12.1f us\n", r.RuntimeNs/1e3)
	fmt.Fprintf(w, "  accesses         %12d\n", r.Accesses)
	fmt.Fprintf(w, "  dir requests     %12d (local %.2f)\n",
		r.LocalRequests+r.RemoteRequests, r.LocalFraction())
	fmt.Fprintf(w, "  PF allocs        %12d\n", r.PFAllocs)
	fmt.Fprintf(w, "  PF evictions     %12d (%.1f msgs/evict)\n",
		r.PFEvictions, r.MessagesPerEviction())
	tot := r.Raw().Totals()
	fmt.Fprintf(w, "  evict live hits  %12d of %d probes; probe hits at caches %d\n",
		tot.EvictionHits, tot.EvictionProbes, tot.Invalidations)
	fmt.Fprintf(w, "  L2 misses        %12d\n", r.L2Misses)
	fmt.Fprintf(w, "  NoC traffic      %12d bytes (%d msgs)\n", r.NoCBytes, r.NoCMessages)
	fmt.Fprintf(w, "  energy NoC/PF    %12.1f / %.1f nJ\n", r.NoCEnergyPJ/1e3, r.PFEnergyPJ/1e3)
	if r.UntrackedGrants > 0 || r.LocalProbes > 0 {
		fmt.Fprintf(w, "  untracked fills  %12d\n", r.UntrackedGrants)
		fmt.Fprintf(w, "  local probes     %12d (%.2f hidden)\n",
			r.LocalProbes, r.SnoopHiddenFraction())
	}
	if r.UncachedGrants > 0 {
		fmt.Fprintf(w, "  uncached grants  %12d\n", r.UncachedGrants)
	}
}
