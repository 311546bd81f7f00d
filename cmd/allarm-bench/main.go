// Command allarm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	allarm-bench -exp fig3a              # one experiment
//	allarm-bench -exp all                # everything (minutes)
//	allarm-bench -exp fig2 -accesses 120000 -seed 7
//	allarm-bench -exp all -parallel 4    # bound the worker pool
//	allarm-bench -exp fig3a -policy allarm-hyst   # another registered policy
//	allarm-bench -exp fig3a -json        # raw per-run records, not tables
//	allarm-bench -exp all -csv > runs.csv
//	allarm-bench -exp fig3a -cpuprofile cpu.pprof -memprofile mem.pprof
//	allarm-bench -exp fig3a -exectrace trace.out  # runtime execution trace
//
// -policy swaps the optimised policy the figures evaluate against the
// baseline (default "allarm", reproducing the paper exactly); any name
// registered with allarm.RegisterPolicy works.
//
// By default output is the series each figure plots (normalised to the
// baseline exactly as the paper normalises). With -json or -csv the
// requested experiments' sweeps are merged, deduplicated and run once,
// and the raw per-simulation records are emitted instead of the paper's
// tables ("table1" and "area" run no simulations and contribute
// nothing). Simulations fan out over -parallel workers; results are
// deterministic at any parallelism.
//
// -cpuprofile and -memprofile write pprof profiles covering the run, so
// hot-path regressions are diagnosable without editing code; -exectrace
// writes a runtime execution trace (go tool trace) covering the same
// span, for scheduler-level views of worker-pool behavior.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
)

// logger carries diagnostics to stderr (results go to stdout); set once
// in run after flags are parsed.
var logger *slog.Logger

// mainContext is cancelled on Ctrl-C so an in-flight sweep stops
// promptly (finished runs are still emitted, with the rest marked
// cancelled).
func mainContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt)
	return ctx
}

// main only translates run's status into an exit code: os.Exit skips
// deferred functions, and run's defers must execute (pprof.StopCPUProfile
// writes the CPU profile's trailer at exit) even when — especially when —
// a run fails or is interrupted.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all' (one of: "+strings.Join(allarm.ExperimentIDs, ", ")+")")
		policy     = flag.String("policy", "allarm", "optimised policy the figures evaluate against the baseline (any registered name)")
		accesses   = flag.Int("accesses", 0, "accesses per thread (0 = default)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		fullScale  = flag.Bool("fullscale", false, "use unscaled Table I SRAM sizes")
		parallel   = flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
		jsonOut    = flag.Bool("json", false, "emit raw per-run records as JSON")
		csvOut     = flag.Bool("csv", false, "emit raw per-run records as CSV")
		progress   = flag.Bool("progress", false, "report per-run progress on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		execTrace  = flag.String("exectrace", "", "write a runtime execution trace to this file")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("allarm-bench", allarm.Version)
		return 0
	}
	var lerr error
	if logger, lerr = obs.NewLogger(os.Stderr, *logLevel, *logFormat); lerr != nil {
		fmt.Fprintln(os.Stderr, "allarm-bench:", lerr)
		return 1
	}

	cfg := allarm.ExperimentConfig()
	if *fullScale {
		cfg = allarm.DefaultConfig()
	}
	cfg.Seed = *seed
	if *accesses > 0 {
		cfg.AccessesPerThread = *accesses
	}

	opt, err := allarm.ParsePolicy(*policy)
	if err != nil {
		logger.Error(err.Error())
		return 2
	}

	if *jsonOut && *csvOut {
		logger.Error("-json and -csv are mutually exclusive")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
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
		if err := trace.Start(f); err != nil {
			logger.Error(err.Error())
			return 1
		}
		// Like StopCPUProfile, trace.Stop writes the trailer — it must run
		// on every exit path, which is why main defers to run's status.
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				logger.Error(err.Error())
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error(err.Error())
			}
		}()
	}

	ctx := mainContext()

	ids := []string{*exp}
	if *exp == "all" {
		ids = allarm.ExperimentIDs
	}
	runner := &allarm.Runner{Parallelism: *parallel}
	if *progress {
		runner.Progress = func(done, total int, r allarm.SweepResult) {
			logger.Info(fmt.Sprintf("[%d/%d] %s/%s pf=%dkB",
				done, total, r.Job.Benchmark, r.Job.Config.Policy, r.Job.Config.PFBytes>>10))
		}
	}

	if *jsonOut || *csvOut {
		return emitRaw(ctx, cfg, ids, opt, runner, *jsonOut)
	}

	for _, id := range ids {
		start := time.Now()
		fmt.Printf("== %s ==\n", id)
		if err := allarm.RunExperimentVs(ctx, os.Stdout, cfg, id, opt, runner); err != nil {
			logger.Error(err.Error())
			return 1
		}
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return 0
}

// emitRaw merges the experiments' sweeps (dropping duplicate
// simulations), runs the union once, emits the per-run records, and
// returns the process exit status.
func emitRaw(ctx context.Context, cfg allarm.Config, ids []string, opt allarm.Policy, runner *allarm.Runner, asJSON bool) int {
	merged := allarm.NewSweep()
	for _, id := range ids {
		s, err := allarm.ExperimentSweepVs(cfg, id, opt)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		merged.Add(s.Jobs...)
	}
	merged.Dedup()

	results, runErr := runner.Run(ctx, merged)
	var e allarm.Emitter = allarm.CSVEmitter{}
	if asJSON {
		e = allarm.JSONEmitter{Indent: true}
	}
	if err := e.Emit(os.Stdout, results); err != nil {
		logger.Error(err.Error())
		return 1
	}
	// Per-job failures and cancellation are recorded in the emitted rows;
	// reflect them in the exit status too.
	if runErr != nil || allarm.FirstError(results) != nil {
		return 1
	}
	return 0
}
