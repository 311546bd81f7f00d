// Package fleet is the sharded serving layer behind cmd/allarm-router:
// a thin router that consistent-hashes each job of a sweep onto a fleet
// of allarm-serve backends, scatters per-shard sub-sweeps, and gathers
// the results back into global spec order.
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
// shard needs no fleet awareness at all. Results come back as NDJSON
// Records and are re-rendered through the same emitters a single
// daemon uses (allarm.RecordEmitter), which makes gathered output
// byte-identical to a single-node run of the same request.
//
// # Degradation and requeue
//
// A shard that dies mid-sweep does not fail the gather: after the
// retry budget its jobs are reported as skipped rows (the error column
// names the shard) and the sweep finishes with status "degraded". The
// health loop excludes the shard from new placements after FailAfter
// consecutive probe failures and re-admits it on the first success.
// Skipped is not final, though: when the ring's answer for a skipped
// job changes — the owner was excluded by the health loop, or a
// membership change (SetShards / the /v1/shards API) re-homed its key —
// the job is claimed back, re-dispatched to the new owner, and the
// sweep re-opens until every row is a real result (or the requeue
// budget runs out).
//
// # Survivability
//
// With Options.StateDir set, the router journals every accepted sweep
// (request + assignment), checkpoints gathered records as shard groups
// complete, and persists uploaded traces and membership changes — all
// via the same atomic temp+rename discipline as the shards' own stores.
// A router killed mid-sweep (SIGKILL included) recovers its in-flight
// sweeps under their original ids at boot, re-polls the owning shards
// (whose content-addressed caches make the re-ask nearly free), and
// resumes gathering; the recovered output is byte-identical to what the
// uninterrupted gather would have produced.
//
// # Checkpoint migration
//
// When shards run with -checkpoint-interval, a membership change does
// better than skip-and-requeue for in-flight work: every non-terminal
// job owned by a departing shard has its machine-state checkpoint
// pulled from the old owner (GET /v1/checkpoints/{name}) and pushed to
// its key's new ring owner, which resumes the simulation mid-flight
// instead of restarting from event zero. A planned shard retirement
// therefore costs at most one checkpoint interval of re-simulation per
// in-flight job, and the gathered output stays byte-identical because
// resumed runs are bit-identical. The transfer is best-effort — no
// checkpoint yet, or an already-dead shard, falls back to plain
// re-dispatch — and late rows from the old owner are dropped by
// ownership checks so a migrated job is never double-reported.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
	"allarm/internal/server"
)

// Tuning defaults.
const (
	// defaultReplicas is the ring points per shard; enough that removing
	// one shard spreads its keys roughly evenly over the survivors.
	defaultReplicas = 64
	// defaultHealthInterval paces /healthz probes.
	defaultHealthInterval = 2 * time.Second
	// defaultFailAfter is the consecutive probe failures before a shard
	// is excluded from placement.
	defaultFailAfter = 2
	// defaultAttempts bounds tries per shard call (1 + retries).
	defaultAttempts = 3
	// defaultRetryBackoff seeds the exponential retry backoff.
	defaultRetryBackoff = 100 * time.Millisecond
	// defaultShardTimeout bounds non-streaming shard calls.
	defaultShardTimeout = 30 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// maxSubmitBytes / maxTraceBytes mirror the shard-side request
	// bounds: the router must not accept what a shard would refuse.
	maxSubmitBytes = 1 << 20
	maxTraceBytes  = 64 << 20
	// maxTraces bounds retained trace uploads. The router keeps raw
	// bytes (for re-upload to amnesiac shards), so the bound is tighter
	// than a shard's.
	maxTraces = 16
)

// Options configures a Router.
type Options struct {
	// Shards are the allarm-serve base URLs (e.g. http://10.0.0.7:8347)
	// the router boots with. At least one is required unless a journaled
	// membership (StateDir) supplies the set. The set can change at
	// runtime via SetShards/AddShard/RemoveShard (the /v1/shards API and
	// SIGHUP reload in cmd/allarm-router); placement depends only on the
	// current set, so every router with the same set computes the same
	// placement.
	Shards []string
	// ShardToken, when non-empty, is the bearer token presented to the
	// shards (their Guard credential). Independent of the router's own
	// Guard: clients authenticate to the router, the router to the fleet.
	ShardToken string
	// Replicas is the ring points per shard (<= 0: defaultReplicas).
	Replicas int
	// Guard, when non-nil, authenticates and rate-limits the router's
	// own clients and enforces their job quotas at submit time.
	// Membership mutations additionally require the admin scope.
	Guard *server.Guard
	// HealthInterval paces shard health probes (<= 0: 2s).
	HealthInterval time.Duration
	// FailAfter is the consecutive probe failures before a shard is
	// excluded from new placements (<= 0: 2). One success re-admits it.
	FailAfter int
	// Attempts bounds tries per shard call (<= 0: 3). 4xx answers other
	// than 429 are never retried.
	Attempts int
	// RetryBackoff seeds the exponential backoff between retries
	// (<= 0: 100ms). Actual waits are full-jittered; a 429's Retry-After
	// overrides the schedule.
	RetryBackoff time.Duration
	// ShardTimeout bounds every non-streaming shard call — submit, poll,
	// record fetch, trace upload (<= 0: 30s). A hung shard therefore
	// costs at most Attempts × ShardTimeout per step.
	ShardTimeout time.Duration
	// StateDir, when non-empty, enables the sweep journal: accepted
	// sweeps, gathered-record checkpoints, uploaded traces and membership
	// changes are persisted there and recovered at boot.
	StateDir string
	// Transport, when non-nil, is the RoundTripper for all shard traffic
	// (tests inject a faultnet.RoundTripper here).
	Transport http.RoundTripper
	// JitterSeed seeds the retry-jitter RNG (0: time-seeded). Fixed
	// seeds make chaos runs replayable.
	JitterSeed int64
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Logger, when non-nil, is the structured logger: lifecycle events
	// go to it (at info) when Logf is nil, and the Handler emits one
	// request log line per request with method/route/status/duration and
	// the X-Allarm-Request-Id correlation id.
	Logger *slog.Logger
}

// Router scatters sweeps over a shard fleet and gathers their results.
// Create with New, serve Handler, stop with Close. All result state
// lives in the shards; the router's own durable state (when StateDir is
// set) is only the journal that lets a restart resume its gathers.
type Router struct {
	opts      Options
	transport http.RoundTripper
	mux       *http.ServeMux
	handler   http.Handler
	ctx       context.Context
	cancel    context.CancelFunc
	start     time.Time
	attempts  int
	backoff   time.Duration
	timeout   time.Duration
	journal   *journal // nil when StateDir is unset

	// mem is the current membership snapshot; memMu serializes mutations
	// (readers just Load).
	mem   atomic.Pointer[membership]
	memMu sync.Mutex

	// rng feeds retry jitter (behind rngMu: retries are concurrent).
	rngMu sync.Mutex
	rng   *rand.Rand

	met *routerMetrics

	mu     sync.Mutex
	sweeps map[string]*fleetSweep
	order  []string
	nextID uint64
	traces map[string]traceEntry
	trIDs  []string // upload order, oldest first (eviction)

	active sync.WaitGroup // gather goroutines + health loop
}

// traceEntry keeps an upload's raw bytes (for re-upload to a shard that
// lost it) alongside the parsed workload (for local sweep expansion).
type traceEntry struct {
	data []byte
	wl   allarm.Workload
}

// New returns a ready Router with its health loop running and — when
// StateDir holds journaled sweeps — its recovered gathers resuming.
func New(opts Options) (*Router, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		opts:      opts,
		transport: opts.Transport,
		ctx:       ctx,
		cancel:    cancel,
		start:     time.Now(),
		attempts:  opts.Attempts,
		backoff:   opts.RetryBackoff,
		timeout:   opts.ShardTimeout,
		met:       newRouterMetrics(),
		sweeps:    make(map[string]*fleetSweep),
		traces:    make(map[string]traceEntry),
	}
	rt.met.reg.Gauge("allarm_router_uptime_seconds", "Seconds since the router started.",
		func() float64 { return time.Since(rt.start).Seconds() })
	rt.met.reg.Gauge("allarm_router_shards_total", "Shards in the membership.",
		func() float64 { return float64(len(rt.mem.Load().shards)) })
	rt.met.reg.Gauge("allarm_router_shards_healthy", "Shards currently healthy.",
		func() float64 {
			n := 0
			for _, sh := range rt.mem.Load().shards {
				if sh.isHealthy() {
					n++
				}
			}
			return float64(n)
		})
	if rt.attempts <= 0 {
		rt.attempts = defaultAttempts
	}
	if rt.backoff <= 0 {
		rt.backoff = defaultRetryBackoff
	}
	if rt.timeout <= 0 {
		rt.timeout = defaultShardTimeout
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt.rng = rand.New(rand.NewSource(seed))

	if opts.StateDir != "" {
		j, err := openJournal(opts.StateDir, rt.logf)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		rt.journal = j
	}

	// The journaled membership — the set as of the last runtime mutation
	// — outranks the boot flags: a restart must see the ring its sweeps
	// were placed on, not a stale command line.
	shardURLs := opts.Shards
	if journaled, ok := rt.journal.loadMembership(); ok {
		shardURLs = journaled
		rt.logf("membership: restored %d shard(s) from journal (overrides -shards)", len(journaled))
	}
	mem, err := rt.buildMembership(shardURLs, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	rt.mem.Store(mem)

	rt.loadTraces()

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/sweeps", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/sweeps", rt.handleList)
	rt.mux.HandleFunc("GET /v1/sweeps/{id}", rt.handleStatus)
	rt.mux.HandleFunc("DELETE /v1/sweeps/{id}", rt.handleDelete)
	rt.mux.HandleFunc("GET /v1/sweeps/{id}/results", rt.handleResults)
	rt.mux.HandleFunc("GET /v1/sweeps/{id}/events", rt.handleEvents)
	rt.mux.HandleFunc("GET /v1/sweeps/{id}/timeline", rt.handleTimeline)
	rt.mux.HandleFunc("POST /v1/traces", rt.handleTraceUpload)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShardsList)
	rt.mux.HandleFunc("POST /v1/shards", rt.handleShardAdd)
	rt.mux.HandleFunc("DELETE /v1/shards", rt.handleShardRemove)
	rt.mux.HandleFunc("GET /v1/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, allarm.DescribePolicies())
	})
	rt.mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, allarm.DescribeBenchmarks())
	})
	rt.mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"version": allarm.Version})
	})
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// pprof is admin-gated like the timeline and membership mutation:
	// with a Guard the bearer is already verified (Wrap 401s otherwise)
	// and non-admin clients get 403; without -auth it is open.
	rt.mux.HandleFunc("/debug/pprof/", rt.adminOnly(pprof.Index))
	rt.mux.HandleFunc("/debug/pprof/cmdline", rt.adminOnly(pprof.Cmdline))
	rt.mux.HandleFunc("/debug/pprof/profile", rt.adminOnly(pprof.Profile))
	rt.mux.HandleFunc("/debug/pprof/symbol", rt.adminOnly(pprof.Symbol))
	rt.mux.HandleFunc("/debug/pprof/trace", rt.adminOnly(pprof.Trace))
	// Request-id minting, request logging and per-route latency wrap
	// outside the Guard so rejected requests are observable too.
	rt.handler = obs.Instrument(opts.Guard.Wrap(rt.mux), obs.MiddlewareOptions{
		Logger:   opts.Logger,
		Registry: rt.met.reg,
		Prefix:   "allarm_router_",
		Route: func(r *http.Request) string {
			_, pattern := rt.mux.Handler(r)
			return pattern
		},
	})

	rt.recoverSweeps()

	rt.active.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler (behind the Guard when one
// is configured).
func (rt *Router) Handler() http.Handler { return rt.handler }

// Close stops the health loop and cancels in-flight gathers, waiting
// for them to unwind. Shard-side sweeps keep running — the shards own
// the work — and the journal is deliberately left exactly as a crash
// would leave it: an interrupted gather stays "running" on disk so the
// next boot resumes it (Close and SIGKILL are the same event to the
// journal, which is what makes recovery trustworthy).
func (rt *Router) Close() {
	rt.cancel()
	rt.active.Wait()
}

func (rt *Router) logf(format string, args ...any) {
	switch {
	case rt.opts.Logf != nil:
		rt.opts.Logf(format, args...)
	case rt.opts.Logger != nil:
		rt.opts.Logger.Info(fmt.Sprintf(format, args...))
	}
}

// adminOnly wraps an operational handler (pprof) behind the admin
// scope, mirroring the membership-mutation endpoints.
func (rt *Router) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := server.CheckAdmin(r); err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
		h(w, r)
	}
}

// journalSweep rewrites a sweep's journal entry from its current state.
func (rt *Router) journalSweep(st *fleetSweep) {
	if rt.journal == nil {
		return
	}
	v := st.view()
	rt.journal.writeSweep(journalSweep{
		ID:         st.id,
		Created:    st.created,
		Status:     v.Status,
		Request:    st.req,
		Assignment: st.assignment(),
	})
}

// checkpointSweep rewrites a sweep's gathered-record checkpoint.
func (rt *Router) checkpointSweep(st *fleetSweep) {
	if rt.journal == nil {
		return
	}
	rt.journal.writeCheckpoint(st.id, st.checkpointLines())
}

// loadTraces restores journaled trace uploads (boot).
func (rt *Router) loadTraces() {
	ids, data := rt.journal.loadTraces()
	for _, id := range ids {
		wl, err := allarm.ReadTraceNamed(bytes.NewReader(data[id]), id)
		if err != nil {
			rt.logf("recovery: trace %s: %v", id, err)
			rt.journal.removeTrace(id)
			continue
		}
		rt.traces[id] = traceEntry{data: data[id], wl: wl}
		rt.trIDs = append(rt.trIDs, id)
	}
	rt.evictTraces()
}

// evictTraces enforces maxTraces, oldest first. Callers hold rt.mu (or
// run before the router serves).
func (rt *Router) evictTraces() {
	for len(rt.trIDs) > maxTraces {
		delete(rt.traces, rt.trIDs[0])
		rt.journal.removeTrace(rt.trIDs[0])
		rt.trIDs = rt.trIDs[1:]
	}
}

// recoverSweeps replays the journal at boot: every persisted sweep
// comes back under its original id; incomplete ones resume gathering.
func (rt *Router) recoverSweeps() {
	entries := rt.journal.loadSweeps()
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.ID, "fs-%d", &n); err == nil && n > rt.nextID {
			rt.nextID = n
		}
	}
	for _, e := range entries {
		if err := rt.recoverSweep(e); err != nil {
			rt.logf("recovery: sweep %s: %v", e.ID, err)
		}
	}
}

// recoverSweep rebuilds one journaled sweep: re-expand the request
// (ExpandSweep is deterministic, so global indices and keys line up
// exactly), restore checkpointed records, and re-dispatch whatever is
// still owed to its journaled owner — or, when that shard left the
// fleet, to the key's current ring owner.
func (rt *Router) recoverSweep(e journalSweep) error {
	sweep, err := server.ExpandSweep(e.Request, rt.lookupTrace)
	if err != nil {
		return fmt.Errorf("re-expanding: %w", err)
	}
	shardOf := make([]string, sweep.Len())
	for name, idxs := range e.Assignment {
		for _, i := range idxs {
			if i < 0 || i >= sweep.Len() {
				return fmt.Errorf("assignment index %d out of range (%d jobs)", i, sweep.Len())
			}
			shardOf[i] = name
		}
	}
	views := make([]JobView, sweep.Len())
	for i, job := range sweep.Jobs {
		views[i] = JobView{
			Benchmark: job.WorkloadName(),
			Policy:    job.Config.Policy.String(),
			PFKiB:     job.Config.PFBytes >> 10,
			Shard:     shardOf[i],
			Status:    server.JobPending,
		}
	}
	st := newFleetSweep(e.ID, views, e.Created)
	st.req = e.Request
	st.expanded = sweep.Jobs
	st.specs = buildSpecs(sweep, e.Request)
	st.recovered = true
	// Recovery has no inbound request; a fresh correlation id still
	// stitches the resumed gather's logs and timeline together.
	st.reqID = obs.NewRequestID()
	st.timeline("accepted", -1, "", "recovered from journal")
	missing := st.restore(rt.journal.loadCheckpoint(e.ID))

	// Group the owed jobs by owner before the sweep is visible anywhere.
	mem := rt.mem.Load()
	groups := make(map[*shard][]int)
	for _, i := range missing {
		sh := mem.byName(shardOf[i])
		if sh == nil {
			if si := mem.ring.lookup(sweep.Jobs[i].Key(), mem.alive); si >= 0 {
				sh = mem.shards[si]
			}
		}
		if sh == nil {
			serr := fmt.Errorf("shard %s: no longer a fleet member and no replacement owner", shardOf[i])
			st.setRecord(i, allarm.RecordOf(allarm.SweepResult{Job: sweep.Jobs[i], Err: serr}))
			st.jobUpdate(i, server.JobSkipped, serr.Error())
			continue
		}
		st.jobs[i].Shard = sh.name
		groups[sh] = append(groups[sh], i)
	}

	rt.mu.Lock()
	rt.sweeps[e.ID] = st
	rt.order = append(rt.order, e.ID)
	rt.mu.Unlock()
	rt.met.sweepsRecovered.Add(1)
	rt.journalSweep(st)

	if len(missing) == 0 {
		rt.logf("recovery: sweep %s: complete in journal (%d jobs)", e.ID, st.total)
		return nil
	}
	rt.logf("recovery: sweep %s: resuming %d of %d job(s)", e.ID, len(missing), st.total)
	if len(groups) > 0 {
		rt.active.Add(1)
		go rt.dispatch(st, groups)
	} else if _, ok := st.takeFinishNotice(); ok {
		// Everything owed was just skip-marked (owners gone): terminal.
		rt.checkpointSweep(st)
		rt.journalSweep(st)
		rt.met.sweepsDegraded.Add(1)
	}
	return nil
}

// healthLoop probes every shard each interval, excluding and
// re-admitting them as their /healthz answers flip.
func (rt *Router) healthLoop() {
	defer rt.active.Done()
	interval := rt.opts.HealthInterval
	if interval <= 0 {
		interval = defaultHealthInterval
	}
	failAfter := rt.opts.FailAfter
	if failAfter <= 0 {
		failAfter = defaultFailAfter
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probeAll(failAfter)
		}
	}
}

// probeAll runs one health round across the fleet, concurrently. A
// round that flipped any shard's state re-evaluates skipped jobs: an
// exclusion gives their keys a new ring owner, a readmission may give
// back the original.
func (rt *Router) probeAll(failAfter int) {
	mem := rt.mem.Load()
	var wg sync.WaitGroup
	var flipped atomic.Bool
	for _, sh := range mem.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			ok := rt.probe(sh)
			switch sh.probeResult(ok, failAfter, time.Now()) {
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
// the version) but should not linger.
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

// specOf reconstructs the request-level workload spec of an expanded
// job: the inverse of ExpandSweep's resolve step. Trace workloads are
// named by their content-hash id, so the spec round-trips exactly.
func specOf(job allarm.Job) string {
	if job.Workload != nil {
		return "trace:" + job.Workload.Name()
	}
	return "bench:" + job.Benchmark
}

// buildSpecs encodes every expanded job as the JobSpec a shard will
// re-expand to the identical Job.Key: each job's own policy and — only
// when it differs from the request config — probe-filter size.
func buildSpecs(sweep *allarm.Sweep, req *server.SweepRequest) []server.JobSpec {
	baseCfg := server.RequestConfig(req.Config)
	specs := make([]server.JobSpec, sweep.Len())
	for i, job := range sweep.Jobs {
		js := server.JobSpec{
			Workload: specOf(job),
			Policy:   job.Config.Policy.String(),
		}
		if job.Config.PFBytes != baseCfg.PFBytes {
			js.PFKiB = job.Config.PFBytes >> 10
		}
		specs[i] = js
	}
	return specs
}

// subRequestFor builds the sub-sweep for one shard's share of st.
func subRequestFor(st *fleetSweep, globals []int) *server.SweepRequest {
	specs := make([]server.JobSpec, len(globals))
	for li, g := range globals {
		specs[li] = st.specs[g]
	}
	return &server.SweepRequest{Jobs: specs, Config: st.req.Config}
}

// handleSubmit is the scatter: expand the request exactly as a shard
// would, place every job by its key, journal the accepted sweep, and
// send each shard its jobs as an explicit JobSpec list in global spec
// order.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sweep, err := server.ExpandSweep(&req, rt.lookupTrace)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := server.CheckJobQuota(r, sweep.Len()); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	if rt.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("router is shutting down"))
		return
	}

	// Place every job against one membership snapshot. Placement is by
	// Job.Key, so two identical jobs — within this sweep or across
	// sweeps — always meet the same cache.
	mem := rt.mem.Load()
	assign := make(map[*shard][]int)
	for g, job := range sweep.Jobs {
		si := mem.ring.lookup(job.Key(), mem.alive)
		if si < 0 {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy shards"))
			return
		}
		assign[mem.shards[si]] = append(assign[mem.shards[si]], g)
	}

	views := make([]JobView, sweep.Len())
	for sh, globals := range assign {
		for _, g := range globals {
			job := sweep.Jobs[g]
			views[g] = JobView{
				Benchmark: job.WorkloadName(),
				Policy:    job.Config.Policy.String(),
				PFKiB:     job.Config.PFBytes >> 10,
				Shard:     sh.name,
				Status:    server.JobPending,
			}
		}
	}

	rt.mu.Lock()
	rt.nextID++
	id := fmt.Sprintf("fs-%06d", rt.nextID)
	st := newFleetSweep(id, views, time.Now())
	st.req = &req
	st.expanded = sweep.Jobs
	st.specs = buildSpecs(sweep, &req)
	st.reqID = obs.RequestID(r.Context())
	rt.sweeps[id] = st
	rt.order = append(rt.order, id)
	rt.mu.Unlock()
	st.timeline("accepted", -1, "", "")
	st.timeline("expanded", -1, "", fmt.Sprintf("%d job(s) over %d shard(s)", sweep.Len(), len(assign)))

	// Journal before acknowledging: once the client holds a 202, a crash
	// must not lose the sweep.
	rt.journalSweep(st)

	rt.met.sweepsSubmitted.Add(1)
	rt.met.jobsScattered.Add(uint64(sweep.Len()))
	rt.logf("sweep %s: %d jobs scattered over %d shards", id, sweep.Len(), len(assign))
	rt.active.Add(1)
	go rt.dispatch(st, assign)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, server.SubmitResponse{
		ID: id, Jobs: sweep.Len(),
		Status:  "/v1/sweeps/" + id,
		Results: "/v1/sweeps/" + id + "/results",
		Events:  "/v1/sweeps/" + id + "/events",
	})
}

// dispatch drives one wave of shard groups — the initial scatter, a
// recovery resume, or a requeue — and performs the sweep's one-time
// finish effects if this wave completed it.
func (rt *Router) dispatch(st *fleetSweep, groups map[*shard][]int) {
	defer rt.active.Done()
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
	if status, ok := st.takeFinishNotice(); ok {
		st.timeline("done", -1, "", status)
		rt.journalSweep(st)
		if status == StatusDegraded {
			rt.met.sweepsDegraded.Add(1)
			rt.logf("sweep %s: degraded (%s)", st.id, time.Since(begin).Round(time.Millisecond))
		} else {
			rt.met.sweepsCompleted.Add(1)
			rt.logf("sweep %s: done (%s)", st.id, time.Since(begin).Round(time.Millisecond))
		}
	}
}

// gatherGroup runs one shard's share of a sweep. Failure past the retry
// budget degrades the group's jobs to skipped rows — then immediately
// asks the ring whether anyone else can own them (the failing shard may
// already be excluded), which turns a mid-sweep shard death into a
// re-dispatch instead of a permanent hole.
func (rt *Router) gatherGroup(st *fleetSweep, sh *shard, globals []int) {
	recs, err := rt.runShardSweep(st, sh, subRequestFor(st, globals), globals)
	if err != nil {
		if rt.ctx.Err() != nil {
			// Shutdown, not shard failure: leave the jobs un-terminal so
			// the journal keeps owing them — recovery resumes exactly here.
			return
		}
		rt.met.shardFailures.Add(1)
		rt.logf("sweep %s: shard %s lost %d jobs: %v", st.id, sh.name, len(globals), err)
		for _, g := range globals {
			serr := fmt.Errorf("shard %s: %w", sh.name, err)
			// Ownership-checked: a job migrated away mid-gather belongs to
			// its new shard now and must not be skip-marked here.
			if st.setRecordFrom(sh.name, g, allarm.RecordOf(allarm.SweepResult{Job: st.expanded[g], Err: serr})) {
				st.jobUpdateFrom(sh.name, g, server.JobSkipped, serr.Error())
			}
		}
		rt.checkpointSweep(st)
		rt.requeueSweep(st, "shard "+sh.name+" failed")
		return
	}
	for li, g := range globals {
		// Ownership-checked: drop rows for jobs a membership change
		// migrated to a new shard while this gather was in flight.
		if !st.setRecordFrom(sh.name, g, recs[li]) {
			continue
		}
		// Reconcile statuses the SSE stream may not have delivered
		// (idempotent: terminal states never regress).
		st.jobUpdateFrom(sh.name, g, statusOfRecord(recs[li]), recs[li].Error)
	}
	st.timeline("gathered", -1, sh.name, fmt.Sprintf("%d record(s)", len(recs)))
	rt.checkpointSweep(st)
}

// runShardSweep runs one shard's share: submit (re-uploading traces the
// shard turns out not to know), then watch its SSE stream for per-job
// progress while the status poll — which owns the completion decision
// and the retry budget — runs beside it, then fetch the finished
// records. Every bounded call carries ShardTimeout, so a hung shard
// costs at most the retry budget, never a stalled sweep.
func (rt *Router) runShardSweep(st *fleetSweep, sh *shard, req *server.SweepRequest, globals []int) ([]allarm.Record, error) {
	sh.jobsAssigned.Add(uint64(len(globals)))
	// Shard calls run on the router's lifetime context (the inbound
	// request returned 202 long ago), but carry the sweep's correlation
	// id so every hop — submit, polls, record fetch — logs it.
	ctx := obs.ContextWithRequestID(rt.ctx, st.reqID)

	var id string
	submit := func() error {
		var err error
		id, err = sh.submitSweep(ctx, req, rt.timeout)
		var he *httpError
		if err != nil && isHTTPError(err, &he) && he.status == http.StatusBadRequest &&
			strings.Contains(he.body, "unknown trace") {
			// The shard lost (or never saw) an uploaded trace — a
			// restart without a cache dir, or it joined after the
			// upload broadcast. Re-upload from the router's copy and
			// go again.
			if uerr := rt.reuploadTraces(ctx, sh, req); uerr != nil {
				return fmt.Errorf("%w (re-upload failed: %v)", err, uerr)
			}
			id, err = sh.submitSweep(ctx, req, rt.timeout)
		}
		return err
	}
	if err := rt.retry(ctx, sh, submit); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	st.addShardRun(sh.name, id, globals)
	st.timeline("assigned", -1, sh.name, fmt.Sprintf("%d job(s) as shard sweep %s", len(globals), id))

	// The SSE stream is advisory progress (remapped local → global
	// indices); the poll below decides completion. Running them
	// concurrently means a stream that hangs silently — open socket, no
	// frames — can never stall the gather.
	sctx, scancel := context.WithCancel(ctx)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		err := sh.streamEvents(sctx, id, func(ev sseEvent) {
			if ev.Type != "job" {
				return
			}
			var je struct {
				Index  int    `json:"index"`
				Status string `json:"status"`
				Error  string `json:"error,omitempty"`
			}
			if json.Unmarshal(ev.Data, &je) != nil || je.Index < 0 || je.Index >= len(globals) {
				return
			}
			st.jobUpdateFrom(sh.name, globals[je.Index], je.Status, je.Error)
		})
		if err != nil && ctx.Err() == nil && sctx.Err() == nil {
			rt.logf("sweep %s: shard %s: event stream broke, polling: %v", st.id, sh.name, err)
		}
	}()
	err := rt.awaitTerminal(ctx, sh, id, streamDone)
	scancel()
	<-streamDone
	if err != nil {
		return nil, err
	}

	var recs []allarm.Record
	fetch := func() error {
		var err error
		recs, err = sh.fetchRecords(ctx, id, rt.timeout)
		return err
	}
	if err := rt.retry(ctx, sh, fetch); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if len(recs) != len(globals) {
		return nil, fmt.Errorf("shard returned %d records for %d jobs", len(recs), len(globals))
	}
	return recs, nil
}

// retry runs fn until it succeeds, returns a non-retryable error, or
// the attempt budget is exhausted. Waits come from retryDelay: full
// jitter over the exponential schedule, or the shard's own Retry-After
// on a 429.
func (rt *Router) retry(ctx context.Context, sh *shard, fn func() error) error {
	var err error
	for attempt := 0; attempt < rt.attempts; attempt++ {
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
	if isHTTPError(lastErr, &he) && he.status == http.StatusTooManyRequests && he.retryAfter > 0 {
		return he.retryAfter
	}
	if attempt < 1 {
		attempt = 1
	}
	if attempt > 16 {
		attempt = 16 // past here the ceiling is minutes; cap the shift
	}
	ceil := rt.backoff << (attempt - 1)
	rt.rngMu.Lock()
	d := time.Duration(rt.rng.Int63n(int64(ceil)))
	rt.rngMu.Unlock()
	return d + 1
}

// awaitTerminal polls a shard sweep's status until it is final,
// tolerating up to the retry budget of consecutive poll failures.
// streamDone short-circuits one wait when the SSE stream ends (the
// sweep is usually final at that instant).
func (rt *Router) awaitTerminal(ctx context.Context, sh *shard, id string, streamDone <-chan struct{}) error {
	fails := 0
	for {
		v, err := sh.sweepStatus(ctx, id, rt.timeout)
		switch {
		case err != nil:
			if !retryable(err) {
				return fmt.Errorf("status: %w", err)
			}
			fails++
			if fails >= rt.attempts {
				return fmt.Errorf("status: %w", err)
			}
			sh.retries.Add(1)
		case v.Status == server.StatusDone || v.Status == server.StatusCheckpointed:
			return nil
		default:
			fails = 0
		}
		delay := rt.backoff
		poke := streamDone
		if err != nil {
			// A failed poll paces by the retry schedule — and a 429's
			// Retry-After in particular must not be short-circuited by
			// the stream ending.
			delay = rt.retryDelay(err, fails)
			poke = nil
		}
		select {
		case <-time.After(delay):
		case <-poke:
			streamDone = nil // poll immediately once; then pace normally
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// reuploadTraces pushes the router's copies of every trace the
// sub-sweep references to one shard.
func (rt *Router) reuploadTraces(ctx context.Context, sh *shard, req *server.SweepRequest) error {
	for _, id := range traceIDsOf(req) {
		rt.mu.Lock()
		entry, ok := rt.traces[id]
		rt.mu.Unlock()
		if !ok {
			return fmt.Errorf("trace %s: not held by this router (re-upload it)", id)
		}
		if err := sh.uploadTrace(ctx, entry.data, rt.timeout); err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
	}
	return nil
}

// traceIDsOf lists the distinct trace ids a request references.
func traceIDsOf(req *server.SweepRequest) []string {
	seen := make(map[string]bool)
	var ids []string
	add := func(spec string) {
		if id, ok := strings.CutPrefix(spec, "trace:"); ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, spec := range req.Workloads {
		add(spec)
	}
	for _, js := range req.Jobs {
		add(js.Workload)
	}
	return ids
}

// lookupTrace resolves an uploaded trace for sweep expansion.
func (rt *Router) lookupTrace(id string) allarm.Workload {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.traces[id].wl
}

// handleTraceUpload parses the trace locally (the router must expand
// "trace:ID" specs itself to compute placement keys), keeps the raw
// bytes for shard re-upload — journaled, so recovery can still expand
// and re-upload after a restart — and broadcasts the upload to every
// shard so sub-sweep submits do not each pay a 400-retry round trip.
func (rt *Router) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading trace: %w", err))
		return
	}
	// Same content-addressed id scheme as the shards, so the id a
	// client gets from the router is valid against any shard too.
	sum := sha256.Sum256(data)
	id := "tr-" + hex.EncodeToString(sum[:])

	rt.mu.Lock()
	_, exists := rt.traces[id]
	rt.mu.Unlock()
	var wl allarm.Workload
	if exists {
		wl = rt.lookupTrace(id)
	} else {
		wl, err = allarm.ReadTraceNamed(bytes.NewReader(data), id)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing trace: %w", err))
			return
		}
		rt.mu.Lock()
		if cur, ok := rt.traces[id]; ok {
			wl = cur.wl
		} else {
			rt.traces[id] = traceEntry{data: data, wl: wl}
			rt.trIDs = append(rt.trIDs, id)
			rt.journal.saveTrace(id, data)
			rt.evictTraces()
		}
		rt.mu.Unlock()
		rt.met.tracesUploaded.Add(1)
	}

	// Best-effort broadcast; a shard that misses it (down right now, or
	// evicts the trace later) is healed by the submit-time re-upload.
	mem := rt.mem.Load()
	var wg sync.WaitGroup
	for _, sh := range mem.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if err := sh.uploadTrace(rt.ctx, data, rt.timeout); err != nil {
				rt.logf("trace %s: broadcast to %s: %v", id, sh.name, err)
			}
		}(sh)
	}
	wg.Wait()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, server.TraceResponse{ID: id, Workload: "trace:" + id, Threads: wl.Threads()})
}

func (rt *Router) lookup(id string) *fleetSweep {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sweeps[id]
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	states := make([]*fleetSweep, 0, len(rt.order))
	for _, id := range rt.order {
		states = append(states, rt.sweeps[id])
	}
	rt.mu.Unlock()
	views := make([]SweepView, len(states))
	for i, st := range states {
		views[i] = st.view()
	}
	writeJSON(w, views)
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := rt.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, st.view())
}

// handleTimeline serves the fleet-wide merged timeline: the router's
// own lifecycle events interleaved chronologically with every
// dispatched shard sub-sweep's timeline, shard-local job indices
// remapped to global spec positions and each event tagged with the
// shard it came from. A shard that is gone (or whose timeline needs a
// scope the shard token lacks) degrades to the router-side view for
// its events, never an error. Admin-scoped under -auth, like pprof.
func (rt *Router) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if err := server.CheckAdmin(r); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	st := rt.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	events := st.tl.Snapshot()
	mem := rt.mem.Load()
	ctx := obs.ContextWithRequestID(r.Context(), obs.RequestID(r.Context()))
	for _, run := range st.shardRunsSnapshot() {
		sh := mem.byName(run.shard)
		if sh == nil {
			continue // shard left the fleet; its events are unreachable
		}
		tv, err := sh.fetchTimeline(ctx, run.id, rt.timeout)
		if err != nil {
			rt.logf("sweep %s: shard %s timeline: %v", st.id, run.shard, err)
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
	obs.SortEvents(events)
	writeJSON(w, obs.TimelineView{ID: st.id, Events: events})
}

// handleDelete forgets a finished gather — from memory and from the
// journal. The shards retain their own sweeps and caches.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	st := rt.sweeps[id]
	if st == nil {
		rt.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	if !st.terminalState() {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is still gathering; only finished sweeps can be deleted", id))
		return
	}
	delete(rt.sweeps, id)
	for i, oid := range rt.order {
		if oid == id {
			rt.order = append(rt.order[:i], rt.order[i+1:]...)
			break
		}
	}
	rt.mu.Unlock()
	rt.journal.removeSweep(id)
	w.WriteHeader(http.StatusNoContent)
}

// handleResults renders the gathered records through the same emitters
// and format negotiation a shard uses: byte-identical output, one code
// path.
func (rt *Router) handleResults(w http.ResponseWriter, r *http.Request) {
	st := rt.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	recs, status, ok := st.snapshot()
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; results are available once it is done", st.id, status))
		return
	}
	format, err := server.NegotiateFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	emitter, ctype := server.FormatEmitter(format)
	w.Header().Set("Content-Type", ctype)
	if err := emitter.EmitRecords(w, recs); err != nil {
		rt.logf("sweep %s: emit: %v", st.id, err)
	}
}

// handleEvents streams the gather's progress as SSE, replaying full
// history to late subscribers — the same contract as a shard's stream,
// with job events carrying the owning shard and global indices. The
// finished channel is re-fetched each round: a requeue wave replaces
// it, and a subscriber must keep streaming through the re-open.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := rt.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	poke := st.subscribe()
	defer st.unsubscribe(poke)
	sent := 0
	for {
		evs, final := st.eventsSince(sent)
		for _, e := range evs {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, e.Data)
		}
		if len(evs) > 0 {
			sent += len(evs)
			flusher.Flush()
		}
		if final {
			if evs, _ := st.eventsSince(sent); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-poke:
		case <-r.Context().Done():
			return
		case <-st.finishedCh():
		}
	}
}

// handleHealthz reports the router and a per-shard health summary. The
// router itself is "ok" while any shard is placeable; "degraded" means
// new sweeps would be refused.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mem := rt.mem.Load()
	healthy := 0
	shards := make(map[string]string, len(mem.shards))
	for _, sh := range mem.shards {
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
	writeJSON(w, map[string]any{"status": status, "shards": shards})
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
