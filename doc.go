// Package allarm is a simulation library reproducing "ALLARM: Optimizing
// Sparse Directories for Thread-Local Data" (Roy & Jones, DATE 2014).
//
// ALLARM (ALLocAte on Remote Miss) is a probe-filter allocation policy
// for NUMA cache-coherent systems: directory entries are allocated only
// when the requester is in a different affinity domain from the home
// directory. Under first-touch NUMA page placement, thread-local data is
// homed locally, so it consumes no directory state and generates no
// coherence traffic. Remote misses additionally probe the home's own
// core — in parallel with the DRAM access — to find untracked copies.
//
// The package front-ends a complete machine model (16-node 4×4 mesh,
// private L1/L2 per node, Hammer-style coherence with per-node probe
// filters, one memory controller per node) behind two first-class
// abstractions: the Workload being simulated and the directory
// allocation Policy the machine runs.
//
// # Workloads
//
// A Job simulates one Workload on one machine. Workloads come in three
// kinds — the synthetic SPLASH2/Parsec presets, bit-exact trace replays,
// and user-programmatic generators — and any Workload implementation is
// accepted. Workload, Access and Stream are the simulator's own
// definitions: the cores and the trace capturer consume the same values
// user code produces, with no conversion in between:
//
//	cfg := allarm.DefaultConfig()               // Table I parameters
//	wl, _ := allarm.BenchmarkWorkload("ocean-cont", cfg.Threads, cfg.AccessesPerThread)
//	res, err := allarm.Job{Workload: wl, Config: cfg}.RunCtx(ctx)
//
//	wl, _ = allarm.LoadTrace("barnes.trace")    // captured with CaptureTrace / allarm-sim -gen
//	wl, _ = allarm.NewWorkload(allarm.WorkloadSpec{...}) // programmatic
//
// Job{Benchmark: name} runs a preset by name, and Job.MultiProcess
// selects the paper's multi-process mode. Job.RunCtx steps a RunHandle
// (StartJob) to completion. The simulation polls the context once per
// sim.CancelCheckBudget events — amortised to nothing on the hot
// path — and a cancelled run returns a partial
// Result (Partial == true, metrics up to the abort instant) together
// with an error IsCancellation recognises. Partial results are never
// cached anywhere; re-running the job from a clean start reproduces
// the bit-identical complete result. Compare normalises an optimised
// run to its baseline the way the paper does.
//
// # Policies
//
// Config.Policy selects the directory allocation policy by registry
// name: Baseline ("baseline"), ALLARM ("allarm"), the bundled
// deferred-allocation variant ALLARMHyst ("allarm-hyst"), or any scheme
// added with RegisterPolicy. A registered DirectoryPolicy decides each
// probe-filter miss (Track, GrantUntracked, GrantUncached) per
// directory, and registered names work uniformly across single runs,
// sweeps, the experiment harness and the CLI tools' -policy flags.
// DirectoryPolicy is the one policy interface: the directories consult
// it directly, and the built-in Baseline and ALLARM schemes register
// through the same PolicyFactory as user schemes.
//
// # Sweeps
//
// The paper's evaluation is a grid of independent simulations, and the
// Sweep API is how grids are expressed and executed. A Sweep is a
// declarative list of Jobs, usually derived from a seed job with the
// Cross* combinators; a Runner fans the jobs out over a worker pool with
// context cancellation and progress reporting, returning results in
// spec order regardless of completion order (simulations are
// deterministic, so results are identical at every parallelism):
//
//	sweep := allarm.NewSweep(allarm.Job{Config: cfg}).
//		CrossBenchmarks(allarm.Benchmarks()...).
//		CrossPolicies(allarm.Baseline, allarm.ALLARM, allarm.ALLARMHyst)
//	results, err := allarm.RunSweep(ctx, sweep)     // all cores
//	if err == nil { err = allarm.FirstError(results) }
//
// Jobs carry either a preset name (Job.Benchmark) or any first-class
// workload (Job.Workload; see CrossWorkloads), so one spec can mix
// presets, trace replays and custom generators.
//
// Results are structured data — each SweepResult pairs the Job with its
// *Result or error — rendered by pluggable emitters (TableEmitter,
// CSVEmitter, JSONEmitter) or consumed directly.
//
// Every table and figure of the paper is such a spec: ExperimentSweep
// returns the grid behind an experiment id, with any registered policy
// standing in for ALLARM, and RenderExperiment prints the series the
// paper plots from the grid's results. See README.md for a quickstart
// and cmd/allarm-sim -exp for the figure-regeneration CLI.
//
// # Serving
//
// cmd/allarm-serve runs the sweep engine as a long-lived service
// (internal/server): sweeps are submitted over REST, fan out on a
// bounded worker pool, and results land in a content-addressed cache
// keyed by Job.Key — the stable fingerprint that also drives
// Sweep.Dedup — so each distinct simulation runs at most once and
// identical in-flight submissions are coalesced onto a single
// execution. Per-job progress streams as Server-Sent Events
// (Runner.Start and Runner.JobDone are the underlying hooks, and
// Runner.Exec is the seam the cache plugs into), results are rendered
// by the same emitters the CLI uses (byte-identical to a local
// RunSweep; NDJSONEmitter is the streaming-friendly variant), traces
// upload via POST /v1/traces (ReadTraceNamed), and DescribePolicies /
// DescribeBenchmarks back the discovery endpoints.
//
// The daemon is durable and interruptible. With a cache directory the
// result cache gains a disk tier content-addressed by the same
// Job.Key, submitted sweeps persist until deleted (DELETE
// /v1/sweeps/{id}) or expired (-retain), and a restarted daemon
// re-enqueues unfinished sweeps under their original ids, serving
// already-computed jobs from disk and re-simulating only the missing
// ones. Drain-time cancellation rides Runner.Exec's context into the
// event loop, so an executing simulation aborts within one
// sim.CancelCheckBudget of events; interrupted jobs are reported
// "aborted" (with partial metrics in the checkpoint NDJSON, flagged
// "aborted":true) and never-started ones "skipped". See the Serving
// and "Durability & cancellation" sections of README.md for a curl
// quickstart, the cache-dir layout and the drain semantics.
//
// # Fleet serving
//
// cmd/allarm-router (internal/fleet) scales the same API across many
// daemons. The router is stateless: expanded jobs are
// consistent-hashed onto shards by Job.Key — the fingerprint the
// shards cache under — so identical jobs land where their result is
// warm, a fleet-wide re-submission re-simulates nothing, and results
// gather back in spec order, byte-identical to a single node across
// every emitter. Shards are health-checked and routed around; a shard
// lost mid-sweep degrades its jobs to "skipped" instead of failing the
// gather. Each shard's persistent tier is its own ResultStore
// (internal/server), a content-addressed directory under -cache-dir.
// Both daemons guard their doors with per-client
// bearer tokens, token-bucket rate limits and per-sweep job quotas
// (-auth). See the "Fleet serving" section of README.md for a
// two-shard quickstart.
//
// # Fault tolerance
//
// With -state-dir the router stops being forgettable: every accepted
// sweep is journaled (request, expanded job list, per-shard
// assignment, per-job result checkpoints) with atomic tmp+rename
// writes, and a restarted router recovers in-flight sweeps under their
// original ids — re-asking the shards, whose content-addressed caches
// answer without re-simulating, so a SIGKILL mid-gather costs nothing
// but the restart. The shard set is fixed while the router runs; to
// change it, restart the router with an edited -shards list and the
// same -state-dir, and recovery moves the owed and skipped jobs of
// departed shards onto their new owners. Retries honor Retry-After on
// 429 and otherwise use full-jitter exponential backoff, with a fixed
// 30 s deadline on every attempt. These claims are asserted
// under deterministic chaos: a test-only injector in internal/fleet
// turns declarative fault plans (latency, drops, 5xx/429 bursts, slow
// bodies) into a seeded http.RoundTripper the fleet tests inject
// in-process. See the "Fault tolerance" section of README.md.
package allarm
