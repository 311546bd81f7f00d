// Package fleet is the remote executor behind cmd/allarm-router: the
// same server.Front a single allarm-serve daemon uses, over an Executor
// that consistent-hashes each job of a sweep onto a fleet of
// allarm-serve backends, scatters per-shard sub-sweeps, and delivers the
// gathered records back into global spec order.
//
// # Placement
//
// The sharding key is Job.Key — the same golden-tested fingerprint the
// shards' content-addressed result caches use. Hashing the cache key is
// the whole design: identical jobs always land on the same shard, so a
// re-submitted sweep is served entirely from the fleet's caches with
// zero re-simulations, and no shard ever holds a duplicate of another's
// work. The ring walks past unhealthy shards, so an outage moves only
// the victim's keys (and only while it is out).
//
// # Scatter/gather
//
// A sub-sweep is sent as an explicit JobSpec list in global spec order
// — the same SweepRequest the shard would accept from any client, so a
// shard needs no fleet awareness at all. Right after the submit the
// router asks for the sub-sweep's NDJSON results. A shard answers them
// only once its sweep is final, and marks exactly the error-free rows
// done, so when it answers and no row carries an error the gather is
// complete: a share served from the shard's caches costs a submit and
// one results fetch. A sub-sweep still running answers 409; only then
// does the router open the shard's SSE stream for per-job progress and
// poll its status view until final, and fetch the rows after. Rows that
// carry an error take their job status from the shard's final status
// view, so a draining shard's skipped jobs stay skipped. The records are
// delivered into the sweep's SweepState, which renders them through the
// same emitters a single daemon uses: gathered output is byte-identical
// to a single-node run of the same request. A share gathered from a
// finished shard publishes only its jobs' terminal events on the
// router's own stream, with no "running" frames before them.
//
// # Degradation and requeue
//
// A shard that dies mid-sweep does not fail the gather: after the
// retry budget its jobs are reported as skipped rows (the error column
// names the shard) and the sweep finishes with status "degraded"; so do
// the jobs a draining shard skipped, whose status comes from the shard's
// final status view. The health loop excludes the shard from new
// placements after failAfter consecutive probe failures and re-admits
// it on the first success.
// Skipped is not final, though: when the ring's answer for a skipped
// job changes — the owner was excluded by the health loop, or a restart
// dropped it from the shard set — the job is claimed back, re-dispatched
// to the new owner, and the sweep re-opens until every row is a real
// result (or the requeue budget runs out).
//
// # Survivability
//
// With Options.StateDir set, the Front journals every accepted sweep
// (request + shard assignment) and keeps uploaded traces (a shard that
// lacks one gets it re-uploaded at submit time), and the router
// journals gathered records as shard groups complete — all via the
// atomic temp+rename discipline of the shards' own stores. A router
// killed mid-sweep (SIGKILL included) recovers its sweeps under their
// original ids at boot, re-asks the owning shards (whose
// content-addressed caches make the re-ask nearly free), and resumes
// gathering; the recovered output is byte-identical to what the
// uninterrupted gather would have produced.
//
// # Changing the shard set
//
// The shard set is fixed for the router's lifetime. To change it,
// restart the router with an edited Options.Shards and the same
// StateDir: recovery moves owed jobs whose shard has left, and skipped
// jobs whose ring owner changed, onto their keys' current owners.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
	"allarm/internal/server"
)

// Tuning. The default* values are the defaults of the matching
// unexported Options fields, which only this package's tests set.
const (
	// defaultHealthInterval paces /healthz probes.
	defaultHealthInterval = 2 * time.Second
	// failAfter is the consecutive probe failures before a shard is
	// excluded from placement; one success re-admits it.
	failAfter = 2
	// defaultAttempts bounds tries per shard call (1 + retries). 4xx
	// answers other than 429 are never retried.
	defaultAttempts = 3
	// defaultRetryBackoff seeds the exponential retry backoff. Actual
	// waits are full-jittered; a 429's Retry-After overrides the schedule.
	defaultRetryBackoff = 100 * time.Millisecond
	// shardTimeout bounds every non-streaming shard call — submit, poll,
	// record fetch, trace upload — so a hung shard costs at most
	// attempts × shardTimeout per step.
	shardTimeout = 30 * time.Second
	// defaultReplicas is the ring points per shard; enough that removing
	// one shard spreads its keys roughly evenly over the survivors.
	defaultReplicas = 64
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// maxTraces bounds retained trace uploads. The router keeps raw
	// bytes (for re-upload to amnesiac shards), so the bound is tighter
	// than a shard's.
	maxTraces = 16
	// maxRequeueWaves bounds how many times one sweep's skipped jobs may
	// be re-dispatched onto new owners. Each wave only fires when a
	// job's ring owner actually changed, but a fleet where shards keep
	// dying could otherwise ping-pong jobs forever.
	maxRequeueWaves = 8
)

// Options configures a Router.
type Options struct {
	// Shards are the allarm-serve base URLs (e.g. http://10.0.0.7:8347)
	// of the fleet; at least one is required. The set is fixed for the
	// router's lifetime. Placement depends only on the set, so every
	// router with the same set computes the same placement.
	Shards []string
	// ShardToken, when non-empty, is the bearer token presented to the
	// shards (their Guard credential). Independent of the router's own
	// Guard: clients authenticate to the router, the router to the fleet.
	ShardToken string
	// Guard, when non-nil, authenticates and rate-limits the router's
	// own clients and enforces their job quotas at submit time.
	Guard *server.Guard
	// StateDir, when non-empty, enables the journal: accepted sweeps,
	// gathered records and uploaded traces are persisted there and
	// recovered at boot.
	StateDir string
	// Logger, when non-nil, receives one info line per lifecycle event,
	// and the Handler emits one request log line per request with
	// method/route/status/duration and the X-Allarm-Request-Id
	// correlation id.
	Logger *slog.Logger

	// Test knobs; zero values take the default* constants. transport
	// carries all shard traffic (the fault injector), and a positive
	// jitterSeed makes the retry jitter replayable.
	healthInterval time.Duration
	attempts       int
	retryBackoff   time.Duration
	transport      http.RoundTripper
	jitterSeed     int64
}

// Router is the remote executor: it scatters sweeps over a shard fleet
// and gathers their results, under a server.Front. Create with New,
// serve Handler, stop with Close. All result state lives in the shards;
// the router's own durable state (when StateDir is set) is only the
// journal that lets a restart resume its gathers.
type Router struct {
	opts   Options // test knobs resolved to their defaults
	front  *server.Front
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	// shards is the fleet, fixed at boot; ring places keys on it.
	shards []*shard
	ring   *ring

	// rng feeds retry jitter (behind rngMu: retries are concurrent).
	rngMu sync.Mutex
	rng   *rand.Rand

	met *routerMetrics

	// runs records every shard sub-sweep dispatched per sweep, so the
	// timeline can fetch the shard-local timelines and merge them.
	runsMu sync.Mutex
	runs   map[*server.SweepState][]shardRun
}

// shardRun is one dispatched shard sub-sweep: which shard, the
// shard-local sweep id, and the global spec index of each local job.
type shardRun struct {
	shard   string
	id      string
	globals []int
}

// New returns a ready Router with its health loop running and — when
// StateDir holds journaled sweeps — its recovered gathers resuming.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("fleet: at least one shard is required")
	}
	shards := make([]*shard, 0, len(opts.Shards))
	names := make([]string, 0, len(opts.Shards))
	seen := make(map[string]bool, len(opts.Shards))
	for _, raw := range opts.Shards {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" {
			return nil, fmt.Errorf("fleet: empty shard URL")
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate shard %s", name)
		}
		seen[name] = true
		shards = append(shards, newShard(name, opts.ShardToken, opts.transport))
		names = append(names, name)
	}

	orDefault(&opts.healthInterval, defaultHealthInterval)
	orDefault(&opts.attempts, defaultAttempts)
	orDefault(&opts.retryBackoff, defaultRetryBackoff)
	orDefault(&opts.jitterSeed, time.Now().UnixNano())

	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		start:  time.Now(),
		shards: shards,
		ring:   newRing(names, defaultReplicas),
		rng:    rand.New(rand.NewSource(opts.jitterSeed)),
		met:    newRouterMetrics(),
		runs:   make(map[*server.SweepState][]shardRun),
	}
	rt.met.reg.Gauge("allarm_router_uptime_seconds", "Seconds since the router started.",
		func() float64 { return time.Since(rt.start).Seconds() })
	rt.met.reg.Gauge("allarm_router_shards_total", "Shards in the fleet.",
		func() float64 { return float64(len(rt.shards)) })
	rt.met.reg.Gauge("allarm_router_shards_healthy", "Shards currently healthy.",
		func() float64 {
			n := 0
			for _, sh := range rt.shards {
				if sh.isHealthy() {
					n++
				}
			}
			return float64(n)
		})

	front, err := server.NewFront(rt, server.FrontConfig{
		IDPrefix:       "fs-",
		Dir:            opts.StateDir,
		MaxTraces:      maxTraces,
		KeepTraceBytes: true,
		Incomplete:     server.StatusDegraded,
		Guard:          opts.Guard,
		Logger:         opts.Logger,
		Registry:       rt.met.reg,
		MetricPrefix:   "allarm_router_",
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	rt.front = front
	front.HandleFunc("GET /healthz", rt.handleHealthz)
	front.HandleFunc("GET /metrics", rt.handleMetrics)
	front.Recover()
	front.Go(rt.healthLoop)
	return rt, nil
}

// orDefault sets an unset (non-positive) tuning knob to its default.
func orDefault[T int | int64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Handler returns the router's HTTP handler (behind the Guard when one
// is configured).
func (rt *Router) Handler() http.Handler { return rt.front.Handler() }

// Close stops the health loop and cancels in-flight gathers, waiting
// for them to unwind. Shard-side sweeps keep running — the shards own
// the work — and the journal is deliberately left exactly as a crash
// would leave it: an interrupted gather still owes its jobs on disk, so
// the next boot resumes it (Close and SIGKILL are the same event to the
// journal, which is what makes recovery trustworthy).
func (rt *Router) Close() { rt.front.Close(rt.cancel) }

func (rt *Router) logf(format string, args ...any) { rt.front.Logf(format, args...) }

// healthLoop probes every shard each interval, excluding and
// re-admitting them as their /healthz answers flip.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.opts.healthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll runs one health round across the fleet, concurrently. A
// round that flipped any shard's state re-evaluates skipped jobs: an
// exclusion gives their keys a new ring owner, a readmission may give
// back the original.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	var flipped atomic.Bool
	for _, sh := range rt.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			ok := rt.probe(sh)
			switch sh.probeResult(ok, time.Now()) {
			case "excluded":
				flipped.Store(true)
				rt.logf("shard %s: unhealthy, excluded from placement", sh.name)
			case "readmitted":
				flipped.Store(true)
				rt.logf("shard %s: healthy again, re-admitted", sh.name)
			}
		}(sh)
	}
	wg.Wait()
	if flipped.Load() {
		rt.requeueSkipped("health transition")
	}
}

// probe checks one shard's /healthz (any 200 counts — a draining shard
// still answers queries for its in-flight sweeps, but new placements
// should avoid it, so "draining" bodies are treated as unhealthy). On
// the first success it also records the shard's build version and logs
// a skew warning once: mixed builds serve correctly (Job.Key excludes
// the version) only while both write the same NDJSON record form.
// ReadRecords accepts a line only if it is byte for byte what this
// build's NDJSONEmitter writes for the record read from it, so once a
// Record member is added or moved, every gather from a shard of the
// other build fails with "allarm: record N".
func (rt *Router) probe(sh *shard) bool {
	var health struct {
		Status string `json:"status"`
	}
	if err := sh.doJSON(rt.ctx, http.MethodGet, "/healthz", nil, probeTimeout, &health); err != nil {
		return false
	}
	if health.Status == "draining" {
		return false
	}
	sh.versionMu.Lock()
	known := sh.version != ""
	sh.versionMu.Unlock()
	if !known {
		var v struct {
			Version string `json:"version"`
		}
		if err := sh.doJSON(rt.ctx, http.MethodGet, "/v1/version", nil, probeTimeout, &v); err == nil && v.Version != "" {
			sh.versionMu.Lock()
			sh.version = v.Version
			sh.versionMu.Unlock()
			if v.Version != allarm.Version {
				rt.logf("shard %s: version skew: shard %s, router %s", sh.name, v.Version, allarm.Version)
			}
		}
	}
	return true
}

// byName returns the fleet's shard with the given name, or nil.
func (rt *Router) byName(name string) *shard {
	for _, sh := range rt.shards {
		if sh.name == name {
			return sh
		}
	}
	return nil
}

// owner returns the name of job's ring owner, ok == false when no
// healthy shard can take it.
func (rt *Router) owner(job allarm.Job) (string, bool) {
	si := rt.ring.lookup(job.Key(), func(i int) bool { return rt.shards[i].isHealthy() })
	if si < 0 {
		return "", false
	}
	return rt.shards[si].name, true
}

// owed reports whether a job still has to be gathered.
func owed(jv server.JobView) bool {
	return jv.Status == server.JobPending || jv.Status == server.JobRunning
}

// Place implements server.Executor: every job goes to its key's ring
// owner. Placement is by Job.Key, so two identical jobs — within this
// sweep or across sweeps — always meet the same cache.
func (rt *Router) Place(jobs []allarm.Job) ([]string, error) {
	shards := make([]string, len(jobs))
	for i, job := range jobs {
		name, ok := rt.owner(job)
		if !ok {
			return nil, fmt.Errorf("no healthy shards")
		}
		shards[i] = name
	}
	rt.met.jobsScattered.Add(uint64(len(jobs)))
	return shards, nil
}

// Run implements server.Executor: the first dispatch wave of a new or
// recovered sweep. Owed jobs whose journaled shard has left the fleet
// (the router restarted with a different shard set) move to their
// key's current owner; with no owner at all they are skipped. Skipped
// jobs whose ring owner changed are requeued onto it.
func (rt *Router) Run(st *server.SweepState) {
	if moved := st.Reassign(func(i int, jv server.JobView) (string, bool) {
		if !owed(jv) || rt.byName(jv.Shard) != nil {
			return "", false
		}
		return rt.owner(st.Sweep.Jobs[i])
	}); len(moved) > 0 {
		rt.front.Journal(st)
	}
	groups := make(map[*shard][]int)
	skipped := false
	for i, jv := range st.View().Jobs {
		if !owed(jv) {
			continue
		}
		if sh := rt.byName(jv.Shard); sh != nil {
			groups[sh] = append(groups[sh], i)
			continue
		}
		serr := fmt.Errorf("shard %s: no longer a fleet member and no replacement owner", jv.Shard)
		st.Deliver(jv.Shard, i, allarm.RecordOf(allarm.SweepResult{Job: st.Sweep.Jobs[i], Err: serr}), server.JobSkipped)
		skipped = true
	}
	if skipped {
		rt.front.JournalRecords(st)
	}
	rt.requeueSweep(st, "restart")
	rt.dispatch(st, groups)
}

// requeueSkipped sweeps every known sweep for skipped jobs whose
// current ring owner is a healthy shard other than the one that failed
// them, and re-dispatches exactly those. Called after health
// transitions, when the ring's answer for a key can change.
func (rt *Router) requeueSkipped(reason string) {
	if rt.ctx.Err() != nil {
		return
	}
	for _, st := range rt.front.Sweeps() {
		rt.requeueSweep(st, reason)
	}
}

// requeueSweep re-places one sweep's skipped jobs on the current ring.
func (rt *Router) requeueSweep(st *server.SweepState, reason string) {
	moved := st.Requeue(maxRequeueWaves, func(i int, jv server.JobView) (string, bool) {
		if jv.Status != server.JobSkipped {
			return "", false
		}
		return rt.owner(st.Sweep.Jobs[i])
	})
	if len(moved) == 0 {
		return
	}
	rt.met.jobsRequeued.Add(uint64(len(moved)))
	st.Timeline("requeued", -1, "", fmt.Sprintf("%d skipped job(s) after %s", len(moved), reason))
	rt.front.Journal(st)
	rt.logf("sweep %s: requeued %d skipped job(s) after %s", st.ID, len(moved), reason)
	jobs := st.View().Jobs
	groups := make(map[*shard][]int)
	for _, i := range moved {
		sh := rt.byName(jobs[i].Shard)
		groups[sh] = append(groups[sh], i)
	}
	rt.front.Go(func() { rt.dispatch(st, groups) })
}

// dispatch drives one wave of shard groups — the first scatter or a
// requeue.
func (rt *Router) dispatch(st *server.SweepState, groups map[*shard][]int) {
	if len(groups) == 0 {
		return
	}
	begin := time.Now()
	var wg sync.WaitGroup
	for sh, globals := range groups {
		wg.Add(1)
		go func(sh *shard, globals []int) {
			defer wg.Done()
			rt.gatherGroup(st, sh, globals)
		}(sh, globals)
	}
	wg.Wait()
	rt.met.gathers.Add(1)
	rt.met.gatherNs.Add(uint64(time.Since(begin).Nanoseconds()))
	rt.met.gatherLatency.ObserveSince(begin)
}

// gatherGroup runs one shard's share of a sweep, delivering each row with
// the job status runShardSweep resolved for it. Failure past
// the retry budget degrades the group's jobs to skipped rows — then
// immediately asks the ring whether anyone else can own them (the
// failing shard may already be excluded), which turns a mid-sweep shard
// death into a re-dispatch instead of a permanent hole. Every delivery is
// ownership-checked (SweepState.Deliver): a row only lands while its
// job is still placed on this shard.
func (rt *Router) gatherGroup(st *server.SweepState, sh *shard, globals []int) {
	recs, statuses, err := rt.runShardSweep(st, sh, globals)
	if err != nil {
		if rt.ctx.Err() != nil {
			// Shutdown, not shard failure: leave the jobs owed so the
			// journal keeps owing them — recovery resumes exactly here.
			return
		}
		rt.met.shardFailures.Add(1)
		rt.logf("sweep %s: shard %s lost %d jobs: %v", st.ID, sh.name, len(globals), err)
		for _, g := range globals {
			serr := fmt.Errorf("shard %s: %w", sh.name, err)
			st.Deliver(sh.name, g, allarm.RecordOf(allarm.SweepResult{Job: st.Sweep.Jobs[g], Err: serr}), server.JobSkipped)
		}
		rt.front.JournalRecords(st)
		rt.requeueSweep(st, "shard "+sh.name+" failed")
		return
	}
	for li, g := range globals {
		st.Deliver(sh.name, g, recs[li], statuses[li])
	}
	st.Timeline("gathered", -1, sh.name, fmt.Sprintf("%d record(s)", len(recs)))
	rt.front.JournalRecords(st)
}

// specOf reconstructs the request-level workload spec of an expanded
// job: the inverse of ExpandSweep's resolve step. Trace workloads are
// named by their content-hash id, so the spec round-trips exactly.
func specOf(job allarm.Job) string {
	if job.Workload != nil {
		return "trace:" + job.Workload.Name()
	}
	return "bench:" + job.Benchmark
}

// subRequestFor builds the sub-sweep for one shard's share of st: every
// job as the JobSpec a shard re-expands to the identical Job.Key — its
// own policy and, only when it differs from the request config, its
// probe-filter size.
func subRequestFor(st *server.SweepState, globals []int) *server.SweepRequest {
	baseCfg := server.RequestConfig(st.Request.Config)
	specs := make([]server.JobSpec, len(globals))
	for li, g := range globals {
		job := st.Sweep.Jobs[g]
		specs[li] = server.JobSpec{Workload: specOf(job), Policy: job.Config.Policy.String()}
		if job.Config.PFBytes != baseCfg.PFBytes {
			specs[li].PFKiB = job.Config.PFBytes >> 10
		}
	}
	return &server.SweepRequest{Jobs: specs, Config: st.Request.Config}
}

// runShardSweep runs one shard's share and resolves each row's job
// status, as the package doc's Scatter/gather section describes: submit
// (re-uploading traces the shard turns out not to know), ask for the
// results at once, and on a 409 watch the running sub-sweep to its end
// before asking again. An error-free row is done; a row with an error
// takes its status from the final status view (a draining shard skips
// jobs, which a row alone cannot tell from errors). Every bounded call
// carries shardTimeout, so a hung shard costs at most the retry budget,
// never a stalled sweep.
func (rt *Router) runShardSweep(st *server.SweepState, sh *shard, globals []int) ([]allarm.Record, []string, error) {
	sh.jobsAssigned.Add(uint64(len(globals)))
	req := subRequestFor(st, globals)
	// Shard calls run on the router's lifetime context (the inbound
	// request returned 202 long ago), but carry the sweep's correlation
	// id so every hop — submit, results, stream, polls — logs it.
	ctx := obs.ContextWithRequestID(rt.ctx, st.ReqID)

	var id string
	submit := func() error {
		var err error
		id, err = sh.submitSweep(ctx, req, shardTimeout)
		var he *httpError
		if err != nil && errors.As(err, &he) && he.status == http.StatusBadRequest &&
			strings.Contains(he.body, "unknown trace") {
			// The shard never saw the trace, or lost it (evicted, or a
			// restart without a cache dir). Upload the router's copy and
			// go again.
			if uerr := rt.reuploadTraces(ctx, sh, st, req); uerr != nil {
				return fmt.Errorf("%w (re-upload failed: %v)", err, uerr)
			}
			id, err = sh.submitSweep(ctx, req, shardTimeout)
		}
		return err
	}
	if err := rt.retry(ctx, sh, submit); err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	rt.runsMu.Lock()
	rt.runs[st] = append(rt.runs[st], shardRun{shard: sh.name, id: id, globals: globals})
	rt.runsMu.Unlock()
	st.Timeline("assigned", -1, sh.name, fmt.Sprintf("%d job(s) as shard sweep %s", len(globals), id))

	var recs []allarm.Record
	fetch := func() error {
		var err error
		recs, err = sh.fetchRecords(ctx, id, shardTimeout)
		return err
	}
	var final *server.SweepView
	err := rt.retry(ctx, sh, fetch)
	var he *httpError
	if errors.As(err, &he) && he.status == http.StatusConflict {
		v, werr := rt.watchRunning(ctx, st, sh, id, globals)
		if werr != nil {
			return nil, nil, werr
		}
		final = &v
		err = rt.retry(ctx, sh, fetch)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("results: %w", err)
	}
	if len(recs) != len(globals) {
		return nil, nil, fmt.Errorf("shard returned %d records for %d jobs", len(recs), len(globals))
	}
	statuses := make([]string, len(recs))
	for li, rec := range recs {
		if rec.Error == "" {
			statuses[li] = server.JobDone
			continue
		}
		if final == nil {
			v, err := rt.awaitTerminal(ctx, sh, id, nil)
			if err != nil {
				return nil, nil, err
			}
			final = &v
		}
		if len(final.Jobs) != len(globals) {
			return nil, nil, fmt.Errorf("shard returned %d job views for %d jobs", len(final.Jobs), len(globals))
		}
		statuses[li] = final.Jobs[li].Status
	}
	return recs, statuses, nil
}

// watchRunning waits out a shard sub-sweep that was still running when
// its results were first asked for, and returns its final status view.
// The SSE stream is advisory progress (remapped local → global indices);
// awaitTerminal's poll decides completion. Running them concurrently
// means a stream that hangs silently — open socket, no frames — can
// never stall the gather.
func (rt *Router) watchRunning(ctx context.Context, st *server.SweepState, sh *shard, id string, globals []int) (server.SweepView, error) {
	sctx, scancel := context.WithCancel(ctx)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		err := sh.streamEvents(sctx, id, func(ev sseEvent) {
			if ev.Type != "job" {
				return
			}
			var je server.JobEvent
			if json.Unmarshal(ev.Data, &je) != nil || je.Index < 0 || je.Index >= len(globals) {
				return
			}
			st.Update(sh.name, globals[je.Index], je.Status, je.Error)
		})
		if err != nil && ctx.Err() == nil && sctx.Err() == nil {
			rt.logf("sweep %s: shard %s: event stream broke, polling: %v", st.ID, sh.name, err)
		}
	}()
	final, err := rt.awaitTerminal(ctx, sh, id, streamDone)
	scancel()
	<-streamDone
	return final, err
}

// retry runs fn until it succeeds, returns a non-retryable error, or
// the attempt budget is exhausted. Waits come from retryDelay: full
// jitter over the exponential schedule, or the shard's own Retry-After
// on a 429.
func (rt *Router) retry(ctx context.Context, sh *shard, fn func() error) error {
	var err error
	for attempt := 0; attempt < rt.opts.attempts; attempt++ {
		if attempt > 0 {
			sh.retries.Add(1)
			select {
			case <-time.After(rt.retryDelay(err, attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err = fn()
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return err
}

// retryDelay picks the wait before retry attempt (1-based): a throttled
// shard's Retry-After verbatim, otherwise a full-jitter draw over the
// doubling schedule — uniform in (0, backoff << (attempt-1)]. Full
// jitter keeps a fleet of retriers, all knocked back by the same
// outage, from re-arriving in one synchronized burst.
func (rt *Router) retryDelay(lastErr error, attempt int) time.Duration {
	var he *httpError
	if errors.As(lastErr, &he) && he.status == http.StatusTooManyRequests && he.retryAfter > 0 {
		return he.retryAfter
	}
	if attempt < 1 {
		attempt = 1
	}
	if attempt > 16 {
		attempt = 16 // past here the ceiling is minutes; cap the shift
	}
	ceil := rt.opts.retryBackoff << (attempt - 1)
	rt.rngMu.Lock()
	d := time.Duration(rt.rng.Int63n(int64(ceil)))
	rt.rngMu.Unlock()
	return d + 1
}

// awaitTerminal polls a shard sweep's status until it is final and
// returns that final view: the completion authority for a sub-sweep
// that was still running at its first results ask, and the source of
// the statuses of rows that carry an error. Each poll is one retry call,
// so failures pace by the retry schedule (a 429's Retry-After included)
// and only a successful poll's wait is short-circuited by streamDone,
// closed when the SSE stream ends (the sweep is usually final at that
// instant); a nil streamDone paces every wait by the backoff.
func (rt *Router) awaitTerminal(ctx context.Context, sh *shard, id string, streamDone <-chan struct{}) (server.SweepView, error) {
	for {
		var v server.SweepView
		poll := func() error {
			var err error
			v, err = sh.sweepStatus(ctx, id, shardTimeout)
			return err
		}
		if err := rt.retry(ctx, sh, poll); err != nil {
			return v, fmt.Errorf("status: %w", err)
		}
		if v.Status == server.StatusDone || v.Status == server.StatusCheckpointed {
			return v, nil
		}
		select {
		case <-time.After(rt.opts.retryBackoff):
		case <-streamDone:
			streamDone = nil // poll immediately once; then pace normally
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}

// reuploadTraces pushes the router's copies of every trace the
// sub-sweep references to one shard.
func (rt *Router) reuploadTraces(ctx context.Context, sh *shard, st *server.SweepState, req *server.SweepRequest) error {
	sent := make(map[string]bool)
	for _, js := range req.Jobs {
		id, ok := strings.CutPrefix(js.Workload, "trace:")
		if !ok || sent[id] {
			continue
		}
		sent[id] = true
		data, ok := st.TraceBytes(id)
		if !ok {
			return fmt.Errorf("trace %s: not held by this router (re-upload it)", id)
		}
		if err := sh.uploadTrace(ctx, data, shardTimeout); err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
	}
	return nil
}

// Timeline implements server.Executor: the router's own lifecycle
// events interleaved with every dispatched shard sub-sweep's timeline,
// shard-local job indices remapped to global spec positions and each
// event tagged with the shard it came from. A shard that is gone (or
// whose timeline needs a scope the shard token lacks) degrades to the
// router-side view for its events, never an error.
func (rt *Router) Timeline(r *http.Request, st *server.SweepState) []obs.TimelineEvent {
	events := st.Events()
	rt.runsMu.Lock()
	runs := append([]shardRun(nil), rt.runs[st]...)
	rt.runsMu.Unlock()
	ctx := obs.ContextWithRequestID(r.Context(), obs.RequestID(r.Context()))
	for _, run := range runs {
		sh := rt.byName(run.shard)
		tv, err := sh.fetchTimeline(ctx, run.id, shardTimeout)
		if err != nil {
			rt.logf("sweep %s: shard %s timeline: %v", st.ID, run.shard, err)
			continue
		}
		for _, e := range tv.Events {
			if e.Job >= 0 {
				if e.Job >= len(run.globals) {
					continue
				}
				e.Job = run.globals[e.Job]
			}
			e.Shard = run.shard
			events = append(events, e)
		}
	}
	return events
}

// Forget implements server.Executor: the shards keep their own sweeps
// and caches; only the sub-sweep list goes.
func (rt *Router) Forget(st *server.SweepState) {
	rt.runsMu.Lock()
	delete(rt.runs, st)
	rt.runsMu.Unlock()
}

// handleHealthz reports the router and a per-shard health summary. The
// router itself is "ok" while any shard is placeable; "degraded" means
// new sweeps would be refused.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	shards := make(map[string]string, len(rt.shards))
	for _, sh := range rt.shards {
		if sh.isHealthy() {
			healthy++
			shards[sh.name] = "healthy"
		} else {
			shards[sh.name] = "unhealthy"
		}
	}
	status := "ok"
	if healthy == 0 {
		status = "degraded"
	}
	server.WriteJSON(w, map[string]any{"status": status, "shards": shards})
}
