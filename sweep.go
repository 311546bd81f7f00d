package allarm

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Job is one simulation to run: a workload under a configuration,
// optionally in the paper's multi-process mode. Jobs are plain values —
// build them directly or derive grids with the Sweep combinators. The
// workload is either a benchmark preset named by Benchmark or any
// first-class Workload (a trace replay, a programmatic generator, ...)
// carried in Workload; when both are set, Workload wins.
type Job struct {
	// Benchmark names a workload preset (see Benchmarks and
	// MultiProcessBenchmarks); ignored when Workload is non-nil.
	Benchmark string
	// Workload, when non-nil, is the first-class workload this job runs.
	// Sweeps can mix preset and Workload jobs freely.
	Workload Workload
	// Config is the machine (and, for presets, workload scale) for this
	// job.
	Config Config
	// MultiProcess, when non-nil, runs the job in the paper's Figure 4
	// multi-process mode instead; it applies to benchmark presets only.
	MultiProcess *MultiProcessConfig
}

// RunCtx executes the job and returns its metrics. A workload job runs
// on the machine Config describes with the workload's own thread count
// (at most Config.Nodes) and streams; Config.Threads and
// Config.AccessesPerThread only scale the benchmark presets. Thread i
// is pinned to node i mod Config.Nodes and pages are pre-placed per the
// workload's ForEachPage declaration.
//
// The simulation polls ctx once per sim.CancelCheckBudget events
// (amortised to nothing; a background context costs nothing) and
// aborts within one budget of ctx expiring, returning both a non-nil
// partial Result (Partial == true, metrics covering the events fired so
// far) and an error satisfying errors.Is(err, ctx.Err()).
func (j Job) RunCtx(ctx context.Context) (*Result, error) {
	h, err := StartJob(j)
	if err != nil {
		return nil, err
	}
	for {
		done, err := h.Step(ctx, 0)
		if err != nil {
			return h.Partial(), err
		}
		if done {
			return h.Result()
		}
	}
}

// IsCancellation reports whether err stems from a cancelled or expired
// context — the errors Job.RunCtx and Runner.Run attach to jobs
// that were aborted mid-simulation or skipped before starting. It is
// how consumers (allarm-serve's per-job status, emitters, harnesses)
// distinguish "the machine said no" from "the simulation failed".
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WorkloadName returns the name identifying the job's workload: the
// Workload's Name when one is set, the Benchmark name otherwise.
func (j Job) WorkloadName() string {
	if j.Workload != nil {
		return j.Workload.Name()
	}
	return j.Benchmark
}

// appendWorkloadKey appends the job's workload fingerprint: benchmark
// presets by name, Workloads by their Key (see Keyer) or, failing that,
// by name and thread count.
func (j Job) appendWorkloadKey(b []byte) []byte {
	if j.Workload == nil {
		return append(append(b, "bench:"...), j.Benchmark...)
	}
	b = append(b, "wl:"...)
	if k, ok := j.Workload.(Keyer); ok {
		return append(b, k.Key()...)
	}
	b = append(append(b, j.Workload.Name()...), '#')
	return strconv.AppendInt(b, int64(j.Workload.Threads()), 10)
}

// Key returns a stable fingerprint identifying the simulation the job
// performs: two jobs with equal keys produce identical Results. It
// drives Sweep.Dedup, is the content address of the serving result
// cache (internal/server, cmd/allarm-serve), and is the sharding key
// allarm-router consistent-hashes to place jobs on fleet nodes — equal
// keys always land on the same shard, which is what keeps per-shard
// caches coherent without any cross-node invalidation. A job's key is
// therefore part of the package's compatibility surface — golden-tested
// by the TestJobKeyGolden* tests — and must only change when the
// simulation semantics actually change (for example, Config gaining a
// behaviour-affecting field). Silent drift would make the service cache
// conflate distinct simulations or miss identical ones.
//
// The key is four '|'-separated parts: the workload ("bench:NAME",
// "wl:KEY" for a Keyer, else "wl:NAME#THREADS"), whether the
// multi-process section is active ("true"/"false"), that section and
// the Config. The last two are written field by field in declaration
// order as "{Name:value ...}": integers and bools in decimal and
// true/false, floats in strconv's shortest 'g' form, Policy through its
// String, ALLARMRanges as "[{Start:S End:E} ...]" ("[]" when empty).
// Those are the bytes fmt's %+v prints for the two structs, which is
// the reference TestJobKeyMatchesFormat and FuzzJobKey hold the key to.
func (j Job) Key() string {
	// MultiProcess is inert when a first-class Workload is set (Job.RunCtx
	// checks Workload first), so it must not split the fingerprint.
	mp := MultiProcessConfig{}
	mpActive := j.Workload == nil && j.MultiProcess != nil
	if mpActive {
		mp = *j.MultiProcess
	}
	// A preset job's key runs to about 430 bytes; 512 fits it without
	// regrowth.
	b := make([]byte, 0, 512)
	b = append(j.appendWorkloadKey(b), '|')
	b = append(strconv.AppendBool(b, mpActive), '|')
	b = appendIntField(b, "{Copies:", mp.Copies)
	b = appendIntField(b, " FootprintBytes:", mp.FootprintBytes)
	b = appendIntField(b, " LocalMemBytes:", mp.LocalMemBytes)
	b = append(b, "}|"...)
	return string(j.Config.appendKey(b))
}

// appendKey appends the Config part of Job.Key, one entry per field in
// declaration order.
func (c *Config) appendKey(b []byte) []byte {
	b = appendIntField(b, "{Threads:", c.Threads)
	b = appendIntField(b, " AccessesPerThread:", c.AccessesPerThread)
	b = strconv.AppendUint(append(b, " Seed:"...), c.Seed, 10)
	b = append(append(b, " Policy:"...), c.Policy.String()...)
	b = append(b, " ALLARMRanges:["...)
	for i, r := range c.ALLARMRanges {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(append(b, "{Start:"...), r.Start, 10)
		b = strconv.AppendUint(append(b, " End:"...), r.End, 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	b = appendIntField(b, " MemPolicy:", int(c.MemPolicy))
	b = appendIntField(b, " Nodes:", c.Nodes)
	b = appendIntField(b, " MeshW:", c.MeshW)
	b = appendIntField(b, " MeshH:", c.MeshH)
	b = appendIntField(b, " L1Bytes:", c.L1Bytes)
	b = appendIntField(b, " L1Ways:", c.L1Ways)
	b = appendIntField(b, " L2Bytes:", c.L2Bytes)
	b = appendIntField(b, " L2Ways:", c.L2Ways)
	b = appendIntField(b, " PFBytes:", c.PFBytes)
	b = appendIntField(b, " PFWays:", c.PFWays)
	b = appendFloatField(b, " CacheNs:", c.CacheNs)
	b = appendFloatField(b, " DirNs:", c.DirNs)
	b = appendFloatField(b, " DRAMNs:", c.DRAMNs)
	b = appendFloatField(b, " LinkNs:", c.LinkNs)
	b = appendFloatField(b, " DRAMIntervalNs:", c.DRAMIntervalNs)
	b = appendFloatField(b, " LinkBytesPerNs:", c.LinkBytesPerNs)
	b = appendIntField(b, " FlitBytes:", c.FlitBytes)
	b = appendIntField(b, " CtrlMsgBytes:", c.CtrlMsgBytes)
	b = appendIntField(b, " DataMsgBytes:", c.DataMsgBytes)
	b = appendIntField(b, " MemMiBPerNode:", c.MemMiBPerNode)
	b = strconv.AppendBool(append(b, " CheckInvariants:"...), c.CheckInvariants)
	b = strconv.AppendUint(append(b, " MaxEvents:"...), c.MaxEvents, 10)
	return append(b, '}')
}

func appendIntField(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// appendFloatField writes v as fmt's %v does: shortest 'g', with
// "+Inf", "-Inf" and "NaN" for the non-finite values. Integers below
// 1e6 in magnitude, as every preset uses, skip the shortest-float search
// ('g' prints −0 as "-0" and 1e6 up in exponent form).
func appendFloatField(b []byte, name string, v float64) []byte {
	b = append(b, name...)
	if i := int64(v); float64(i) == v && i > -1e6 && i < 1e6 && (i != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, i, 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Sweep is an ordered list of jobs — the declarative spec of an
// experiment grid. Start from one or more seed jobs and expand with the
// Cross* combinators; each combinator replaces every job with one copy
// per supplied value, preserving order (earlier jobs stay earlier, and
// supplied values expand in argument order):
//
//	s := allarm.NewSweep(allarm.Job{Config: cfg}).
//		CrossBenchmarks(allarm.Benchmarks()...).
//		CrossPolicies(allarm.Baseline, allarm.ALLARM)
//
// yields b0/baseline, b0/allarm, b1/baseline, ... Results come back from
// a Runner in exactly this spec order.
type Sweep struct {
	Jobs []Job
}

// NewSweep returns a sweep of the given seed jobs.
func NewSweep(jobs ...Job) *Sweep {
	return &Sweep{Jobs: jobs}
}

// Add appends jobs to the sweep and returns it for chaining.
func (s *Sweep) Add(jobs ...Job) *Sweep {
	s.Jobs = append(s.Jobs, jobs...)
	return s
}

// Len returns the number of jobs in the sweep.
func (s *Sweep) Len() int { return len(s.Jobs) }

// cross replaces every job with n variants produced by set(job, i).
func (s *Sweep) cross(n int, set func(*Job, int)) *Sweep {
	if n == 0 {
		s.Jobs = nil
		return s
	}
	out := make([]Job, 0, len(s.Jobs)*n)
	for _, j := range s.Jobs {
		for i := 0; i < n; i++ {
			v := j
			set(&v, i)
			out = append(out, v)
		}
	}
	s.Jobs = out
	return s
}

// CrossBenchmarks expands every job into one copy per benchmark name
// (clearing any first-class Workload, which would otherwise win).
func (s *Sweep) CrossBenchmarks(names ...string) *Sweep {
	return s.cross(len(names), func(j *Job, i int) { j.Benchmark, j.Workload = names[i], nil })
}

// CrossWorkloads expands every job into one copy per first-class
// workload. Combine with CrossPolicies (and friends) to sweep custom
// workloads — trace replays, programmatic generators — over the same
// grids the presets use.
func (s *Sweep) CrossWorkloads(wls ...Workload) *Sweep {
	return s.cross(len(wls), func(j *Job, i int) { j.Workload, j.Benchmark = wls[i], "" })
}

// CrossPolicies expands every job into one copy per directory policy.
func (s *Sweep) CrossPolicies(policies ...Policy) *Sweep {
	return s.cross(len(policies), func(j *Job, i int) { j.Config.Policy = policies[i] })
}

// CrossPFSizes expands every job into one copy per probe-filter coverage
// (in bytes).
func (s *Sweep) CrossPFSizes(bytes ...int) *Sweep {
	return s.cross(len(bytes), func(j *Job, i int) { j.Config.PFBytes = bytes[i] })
}

// Dedup removes jobs that would repeat an identical simulation (same
// benchmark, mode and configuration), keeping first occurrences in
// order. Useful when concatenating overlapping experiment specs.
func (s *Sweep) Dedup() *Sweep {
	seen := make(map[string]bool, len(s.Jobs))
	out := s.Jobs[:0]
	for _, j := range s.Jobs {
		k := j.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, j)
	}
	s.Jobs = out
	return s
}

// SweepResult pairs one job of a sweep with its outcome. A completed
// job has Result set and Err nil; a failed job has Err set and Result
// nil; a job skipped by cancellation before starting carries the
// context's error alone; and a job aborted mid-simulation carries both
// the cancellation error (IsCancellation(Err) == true) and the partial
// Result (Result.Partial == true) its machine had accumulated.
type SweepResult struct {
	Job    Job
	Result *Result
	Err    error
}

// Aborted reports whether the job was cancelled mid-simulation, leaving
// a well-formed partial Result behind (as opposed to being skipped
// before it started, or failing outright).
func (r SweepResult) Aborted() bool {
	return r.Err != nil && r.Result != nil && IsCancellation(r.Err)
}

// Runner executes sweeps over a worker pool. The zero value is ready to
// use: NumCPU workers, no progress reporting.
type Runner struct {
	// Parallelism is the worker count; <= 0 means runtime.NumCPU().
	// Simulations are deterministic and independent, so results are
	// identical for every parallelism level.
	Parallelism int
	// Progress, when non-nil, is called after each job finishes with the
	// number of jobs done so far, the sweep size, and the finished
	// result. Calls are serialised; done reaches total exactly once.
	Progress func(done, total int, r SweepResult)
	// Start, when non-nil, is called as a worker picks up the job at the
	// given spec index, before it runs. Unlike Progress, calls may arrive
	// concurrently from different workers. Jobs skipped by cancellation
	// never start: they finish (JobDone/Progress) without a Start.
	Start func(index, total int, job Job)
	// JobDone, when non-nil, is called when the job at the given spec
	// index finishes (successfully or not), immediately before Progress
	// and serialised with it. It is the per-job completion callback
	// consumers that need the spec index — like allarm-serve's per-job
	// status — subscribe to.
	JobDone func(index, total int, r SweepResult)
	// Exec, when non-nil, executes each job in place of Job.RunCtx — the
	// seam for layering a result cache, in-flight deduplication or
	// remote execution under a sweep (allarm-serve's content-addressed
	// cache plugs in here). Exec must be safe for concurrent calls and
	// must preserve Job.RunCtx's contract: what it returns for a job
	// must equal what Job.RunCtx would produce. The context is the one
	// Runner.Run was given; honouring it is what lets a drain abort a
	// simulation mid-run instead of waiting it out.
	Exec func(ctx context.Context, j Job) (*Result, error)
}

// Run executes every job of the sweep and returns the results in spec
// order, regardless of completion order. One job failing does not stop
// the others: per-job errors are recorded in the corresponding
// SweepResult (see FirstError). Cancelling ctx stops the sweep promptly:
// jobs not yet started report ctx's error alone, jobs already executing
// abort within one sim.CancelCheckBudget of events and report the error
// together with their partial Result (see SweepResult.Aborted), and
// Run's own error is ctx's error (nil on a completed sweep).
func (r *Runner) Run(ctx context.Context, s *Sweep) ([]SweepResult, error) {
	jobs := s.Jobs
	out := make([]SweepResult, len(jobs))
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		next int64 = -1 // atomically claimed job index
		done int        // progress counter, guarded by mu
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	finish := func(i int, sr SweepResult) {
		out[i] = sr
		if r.Progress == nil && r.JobDone == nil {
			return
		}
		mu.Lock()
		done++
		if r.JobDone != nil {
			r.JobDone(i, len(jobs), sr)
		}
		if r.Progress != nil {
			r.Progress(done, len(jobs), sr)
		}
		mu.Unlock()
	}
	exec := r.Exec
	if exec == nil {
		exec = func(ctx context.Context, j Job) (*Result, error) { return j.RunCtx(ctx) }
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					finish(i, SweepResult{Job: jobs[i], Err: err})
					continue
				}
				if r.Start != nil {
					r.Start(i, len(jobs), jobs[i])
				}
				res, err := exec(ctx, jobs[i])
				finish(i, SweepResult{Job: jobs[i], Result: res, Err: err})
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// RunSweep executes the sweep with a default Runner (NumCPU workers).
func RunSweep(ctx context.Context, s *Sweep) ([]SweepResult, error) {
	return (&Runner{}).Run(ctx, s)
}

// FirstError returns the first per-job error of the results in spec
// order, or nil if every job succeeded. It is the bridge to the
// fail-fast error contract of the pre-sweep API.
func FirstError(results []SweepResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
