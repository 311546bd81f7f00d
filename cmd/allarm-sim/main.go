// Command allarm-sim runs a single simulation of one workload under one
// policy and prints its metrics.
//
// Usage:
//
//	allarm-sim -bench ocean-cont -policy allarm -accesses 60000
//	allarm-sim -bench barnes -pair              # baseline vs -policy
//	allarm-sim -bench barnes -pair -json        # raw records instead
//	allarm-sim -workload trace:barnes.trace     # replay a captured trace
//	allarm-sim -bench dedup -policy allarm-hyst # any registered policy
//	allarm-sim -list                            # benchmarks and policies
//
// The workload is either a benchmark preset (-bench, or -workload
// bench:NAME) or a captured trace (-workload trace:FILE; see
// allarm-trace -gen). -policy accepts any registered directory policy.
// Every invocation is a (possibly one-job) sweep: -pair fans baseline
// and -policy out over -parallel workers, and -json/-csv swap the human
// summary for the raw per-run records. Ctrl-C cancels the sweep
// promptly; finished runs are still emitted, with the rest marked
// cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	allarm "allarm"
	"allarm/internal/obs"
)

// mainContext is cancelled on Ctrl-C so an in-flight sweep stops
// promptly (finished runs are still emitted, with the rest marked
// cancelled).
func mainContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt)
	return ctx
}

// main only translates run's status into an exit code: os.Exit skips
// deferred functions, and funnelling every exit path through run keeps
// them (and any future profiling hooks) working under errors and
// interrupts, matching allarm-bench.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		bench     = flag.String("bench", "ocean-cont", "benchmark name")
		wlFlag    = flag.String("workload", "", "workload spec: bench:NAME or trace:FILE (overrides -bench)")
		policy    = flag.String("policy", "baseline", "directory policy name (see -list)")
		pair      = flag.Bool("pair", false, "run baseline and -policy and compare")
		accesses  = flag.Int("accesses", 0, "accesses per thread (0 = default)")
		threads   = flag.Int("threads", 0, "thread count (0 = default 16)")
		pfKiB     = flag.Int("pf", 0, "probe filter coverage in KiB (0 = default 512)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		check     = flag.Bool("check", false, "enable the coherence invariant checker")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		multi     = flag.Int("multi", 0, "run N single-threaded copies instead (Figure 4 mode)")
		fullScale = flag.Bool("fullscale", false, "use unscaled Table I SRAM sizes")
		parallel  = flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
		jsonOut   = flag.Bool("json", false, "emit raw per-run records as JSON")
		csvOut    = flag.Bool("csv", false, "emit raw per-run records as CSV")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("allarm-sim", allarm.Version)
		return 0
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-sim:", err)
		return 1
	}

	if *list {
		fmt.Println("benchmarks:")
		fmt.Println("  " + strings.Join(allarm.Benchmarks(), "\n  "))
		fmt.Println("policies:")
		fmt.Println("  " + strings.Join(allarm.RegisteredPolicies(), "\n  "))
		return 0
	}
	if *jsonOut && *csvOut {
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

	pol, perr := allarm.ParsePolicy(*policy)
	if perr != nil {
		logger.Error("invalid -policy", "error", perr)
		return 2
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

	sweep := allarm.NewSweep(job)
	if *pair {
		opt := pol
		if opt == allarm.Baseline {
			// -pair with the default -policy keeps the paper's comparison.
			opt = allarm.ALLARM
		}
		sweep.CrossPolicies(allarm.Baseline, opt)
	} else {
		sweep.CrossPolicies(pol)
	}

	runner := &allarm.Runner{Parallelism: *parallel}
	results, runErr := runner.Run(mainContext(), sweep)
	if runErr == nil {
		runErr = allarm.FirstError(results)
	}

	// Emit before acting on runErr: on interrupt (or one job failing)
	// the finished runs are still rendered — raw rows carry per-job
	// errors, the human summary prints what completed — and the exit
	// status reports the failure.
	err = nil
	switch {
	case *jsonOut:
		err = allarm.JSONEmitter{Indent: true}.Emit(os.Stdout, results)
	case *csvOut:
		err = allarm.CSVEmitter{}.Emit(os.Stdout, results)
	default:
		for _, r := range results {
			// Aborted jobs carry a partial Result alongside their error;
			// the human summary prints completed runs only (the raw
			// -json/-csv rows expose partials, with the error and — in
			// JSON — the aborted flag).
			if r.Result != nil && r.Err == nil {
				print1(r.Result)
			}
		}
		if *pair && runErr == nil {
			c := allarm.Compare(results[0].Result, results[1].Result)
			fmt.Printf("speedup            %8.3fx\n", c.Speedup)
			fmt.Printf("evictions ratio    %8.3f\n", c.EvictionRatio)
			fmt.Printf("traffic ratio      %8.3f\n", c.TrafficRatio)
			fmt.Printf("L2 miss ratio      %8.3f\n", c.L2MissRatio)
			fmt.Printf("NoC energy ratio   %8.3f\n", c.NoCEnergyRatio)
			fmt.Printf("PF energy ratio    %8.3f\n", c.PFEnergyRatio)
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

func print1(r *allarm.Result) {
	fmt.Printf("%s [%s]\n", r.Benchmark, r.PolicyUsed)
	fmt.Printf("  runtime          %12.1f us\n", r.RuntimeNs/1e3)
	fmt.Printf("  accesses         %12d\n", r.Accesses)
	fmt.Printf("  dir requests     %12d (local %.2f)\n",
		r.LocalRequests+r.RemoteRequests, r.LocalFraction())
	fmt.Printf("  PF allocs        %12d\n", r.PFAllocs)
	fmt.Printf("  PF evictions     %12d (%.1f msgs/evict)\n",
		r.PFEvictions, r.MessagesPerEviction())
	tot := r.Raw().Totals()
	fmt.Printf("  evict live hits  %12d of %d probes; probe hits at caches %d\n",
		tot.EvictionHits, tot.EvictionProbes, tot.Invalidations)
	fmt.Printf("  L2 misses        %12d\n", r.L2Misses)
	fmt.Printf("  NoC traffic      %12d bytes (%d msgs)\n", r.NoCBytes, r.NoCMessages)
	fmt.Printf("  energy NoC/PF    %12.1f / %.1f nJ\n", r.NoCEnergyPJ/1e3, r.PFEnergyPJ/1e3)
	if r.UntrackedGrants > 0 || r.LocalProbes > 0 {
		fmt.Printf("  untracked fills  %12d\n", r.UntrackedGrants)
		fmt.Printf("  local probes     %12d (%.2f hidden)\n",
			r.LocalProbes, r.SnoopHiddenFraction())
	}
	if r.UncachedGrants > 0 {
		fmt.Printf("  uncached grants  %12d\n", r.UncachedGrants)
	}
}
