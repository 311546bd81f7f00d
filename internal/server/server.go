// Package server is the simulation-as-a-service layer behind
// cmd/allarm-serve, and the sweep front end cmd/allarm-router shares.
//
// # One front end, two executors
//
// Front is the whole client-facing sweep lifecycle: submit (decode,
// ExpandSweep, quota, 503 while closing), list, status, delete, results
// in every emitter format, Server-Sent Events, the lifecycle timeline,
// content-addressed trace uploads, the on-disk journal and boot
// recovery. Every accepted sweep is one SweepState — job views,
// idempotent job updates, delivered records, SSE history and timeline —
// and results always render from its records through the library's
// RecordEmitters, so a sweep's bytes do not depend on where it ran.
//
// What differs is the Executor, whose four methods place a submission's
// jobs, run a sweep, assemble its timeline and forget a deleted one.
// Server runs jobs locally; fleet.Router scatters them over allarm-serve
// shards and gathers the records back. Both daemons share one process
// lifecycle, ServeDaemon: listen, banner, signals, drain and shutdown.
//
// # Local execution
//
// Server executes through a bounded worker pool and a content-addressed
// result cache keyed on Job.Key — the same fingerprint Sweep.Dedup uses
// — so every distinct simulation runs at most once for the daemon's
// lifetime (LRU-bounded): identical jobs in later sweeps are served from
// cache, and identical jobs in flight at the same time are coalesced
// onto one execution (singleflight).
//
// # Durability
//
// With a cache directory (Options.CacheDir, allarm-serve -cache-dir)
// the daemon becomes restart-safe, and that directory holds all of its
// state. The in-memory LRU gains a disk tier (results/, content-addressed
// by the same Job.Key) that every complete result is written through to;
// the Front journals submitted sweeps (sweeps/<id>.json) until they are
// deleted or expire and keeps uploaded traces (traces/<id>); job
// checkpoints go to jobckpts/ (below). At boot every journaled sweep is
// re-enqueued under its original id — jobs whose keys are already in the
// disk store are served from it without re-simulating, so a SIGKILL
// costs at most the simulations that were mid-flight.
//
// # Machine-state checkpoints
//
// With Options.CheckpointInterval set (allarm-serve
// -checkpoint-interval) even the mid-flight jobs survive: the runner
// snapshots the full machine state of every running simulation every N
// events into jobckpts/ (sha256(Job.Key)-named files, written with the
// same fsync'd temp+rename discipline as the result store). After a
// kill, the recovered sweep's interrupted jobs resume from their
// checkpoints instead of event zero; a resumed run is bit-identical to
// an uninterrupted one (internal/checkpoint's golden-tested guarantee).
// Checkpoints are an optimization, never a correctness dependency: a
// corrupt, truncated or version-skewed file is discarded and the job
// re-simulates from scratch. Checkpoint boundaries also give the pool
// preemption points: a long job yields its worker slot to waiting work.
// Checkpoints never cross the HTTP API; only this daemon's own runner
// reads and writes them.
//
// # Cancellation
//
// Drain cancellation is threaded through Runner.Exec into the event
// loop itself (sim.RunCtx), so an executing simulation aborts within
// one sim.CancelCheckBudget of events instead of running to completion.
// Interrupted jobs report status "aborted" (their results rows carry
// the partial metrics until the daemon exits; nothing writes them to
// disk); jobs cancellation reached first report "skipped"; the sweep
// ends "checkpointed" and stays journaled, so the next daemon finishes
// it under the same id.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
)

// Default sizing knobs.
const (
	// DefaultCacheEntries bounds the result cache when Options doesn't.
	DefaultCacheEntries = 1024
	// maxTraces bounds the parsed trace uploads kept in memory (each
	// pins a replay); evicted ones reload from traces/ on demand.
	maxTraces = 64
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running simulations across all sweeps
	// (<= 0: NumCPU). Request handling is not bounded by it: cache hits
	// and status reads never wait for a worker.
	Workers int
	// CacheEntries bounds the in-memory result cache (<= 0:
	// DefaultCacheEntries). The disk tier, when enabled, is unbounded.
	CacheEntries int
	// CacheDir, when non-empty, makes the daemon restart-safe: results
	// are written through to a disk store under it, sweeps and uploaded
	// traces are journaled, and boot re-enqueues unfinished sweeps (see
	// the package's Durability section for the layout).
	CacheDir string
	// Guard, when non-nil, authenticates and rate-limits every request
	// (see Guard) and enforces per-client job quotas at submit time.
	Guard *Guard
	// CheckpointInterval, when positive, enables machine-state
	// checkpointing of running simulations (allarm-serve
	// -checkpoint-interval): every that-many events, the executing job's
	// whole simulation state is snapshotted to <CacheDir>/jobckpts, a
	// killed daemon resumes interrupted jobs from their latest
	// checkpoint at boot instead of re-simulating from event zero, and
	// long jobs are preempted at checkpoint boundaries when shorter
	// work is waiting for a pool slot. Resumed results are bit-identical
	// to uninterrupted ones. It requires CacheDir, and is ignored when
	// Options.RunJob is set (the injected runner owns execution).
	CheckpointInterval uint64
	// Retain, when positive, evicts finished sweeps (and their journal
	// entries) that reached a terminal state longer than this ago,
	// instead of keeping them for the daemon's lifetime. The
	// content-addressed result store is not affected: identical
	// re-submissions stay cache hits after the sweep itself is gone.
	Retain time.Duration
	// RunJob executes one simulation; nil means Job.RunCtx. Tests inject
	// gates and counters here. Implementations must honour ctx the way
	// Job.RunCtx does: drain latency is bounded by how promptly they
	// abort.
	RunJob func(ctx context.Context, j allarm.Job) (*allarm.Result, error)
	// Logger, when non-nil, receives one info line per lifecycle event,
	// and the Handler emits one request log line per request with
	// method/route/status/duration and the X-Allarm-Request-Id
	// correlation id.
	Logger *slog.Logger
}

// Server is the local executor behind allarm-serve: the worker pool,
// the two-tier result cache and job checkpoints, under a Front. Create
// with New, serve Handler, stop with Drain.
type Server struct {
	opts         Options
	front        *Front
	workers      int
	ctx          context.Context
	cancel       context.CancelFunc
	sem          chan struct{}
	cache        *tieredStore
	flights      flightGroup
	met          *metrics
	start        time.Time
	runJob       func(ctx context.Context, j allarm.Job) (*allarm.Result, error)
	jobCkptDir   string       // <CacheDir>/jobckpts; "" = job checkpoints off
	ckptInterval uint64       // events between job checkpoints
	waiting      atomic.Int64 // jobs blocked on the worker pool (preemption signal)
	actives      atomic.Int64 // sweeps being run (metrics)
	// janitors tracks the Retain janitor goroutine; Close waits for it.
	janitors sync.WaitGroup

	mu sync.Mutex
	// jobRefs maps an in-flight job key to every (sweep, index) running
	// it, so checkpoint/preempt/resume events — which happen deep in the
	// runner where only the Job is known — land on the right timelines
	// (and a resume on the job views), including every sweep coalesced
	// onto one flight.
	jobRefs map[string][]jobRef
}

// jobRef locates one job within one sweep's timeline.
type jobRef struct {
	st  *SweepState
	idx int
}

// New returns a ready Server. With Options.CacheDir set it also opens
// the disk result store and re-enqueues every journaled sweep; the
// returned server is already running those.
func New(opts Options) (*Server, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	entries := opts.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:         opts,
		workers:      workers,
		ctx:          ctx,
		cancel:       cancel,
		sem:          make(chan struct{}, workers),
		cache:        &tieredStore{lru: newResultCache(entries)},
		start:        time.Now(),
		runJob:       opts.RunJob,
		ckptInterval: opts.CheckpointInterval,
		met:          newMetrics(),
		jobRefs:      make(map[string][]jobRef),
	}
	fail := func(err error) (*Server, error) {
		cancel()
		return nil, err
	}
	if s.ckptInterval > 0 {
		if opts.CacheDir == "" {
			return fail(fmt.Errorf("CheckpointInterval needs CacheDir (nowhere to persist checkpoints)"))
		}
		s.jobCkptDir = filepath.Join(opts.CacheDir, "jobckpts")
		if err := os.MkdirAll(s.jobCkptDir, 0o755); err != nil {
			return fail(fmt.Errorf("job checkpoint dir: %w", err))
		}
	}
	switch {
	case s.runJob != nil:
		// Injected runner (tests) owns execution.
	case s.ckptInterval > 0:
		s.runJob = s.runCheckpointed
	default:
		s.runJob = func(ctx context.Context, j allarm.Job) (*allarm.Result, error) { return j.RunCtx(ctx) }
	}
	if opts.CacheDir != "" {
		disk, err := NewDiskStore(filepath.Join(opts.CacheDir, "results"))
		if err != nil {
			return fail(err)
		}
		s.cache.disk = disk
	}
	front, err := NewFront(s, FrontConfig{
		IDPrefix:     "sw-",
		Dir:          opts.CacheDir,
		MaxTraces:    maxTraces,
		Incomplete:   StatusCheckpointed,
		Retain:       opts.Retain,
		Guard:        opts.Guard,
		Logger:       opts.Logger,
		Registry:     s.met.reg,
		MetricPrefix: "allarm_",
	})
	if err != nil {
		return fail(err)
	}
	s.front = front
	s.registerGauges()
	front.HandleFunc("GET /healthz", s.handleHealthz)
	front.HandleFunc("GET /metrics", s.handleMetrics)
	front.Recover()
	if opts.Retain > 0 {
		s.janitors.Add(1)
		go s.janitor()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (behind the Guard when one
// is configured).
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// Close cancels everything immediately (tests; production uses Drain)
// and returns once every sweep goroutine and the janitor have exited,
// so nothing writes into the cache directory afterwards. Submissions
// are refused from the moment Close starts, as during Drain.
func (s *Server) Close() {
	s.front.Close(s.cancel)
	s.janitors.Wait()
}

func (s *Server) logf(format string, args ...any) { s.front.Logf(format, args...) }

// Drain shuts the daemon down gracefully: new sweep submissions are
// refused (503) immediately, then in-flight sweeps get until ctx
// expires to complete; after that, still-running sweeps are cancelled
// and checkpointed — their partial results stay fetchable until exit
// (skipped jobs carry the cancellation error, aborted ones additionally
// their partial metrics). Cancellation reaches into the event loop
// itself (sim.RunCtx), so total drain time is bounded by the grace
// period plus one event budget — not by a full simulation. With a
// CacheDir, the cancelled sweeps stay journaled, so the next daemon
// re-enqueues exactly the jobs that did not finish.
func (s *Server) Drain(ctx context.Context) {
	done := make(chan struct{})
	go func() {
		s.front.Close(nil)
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("drain grace expired; checkpointing in-flight sweeps")
		s.cancel()
		<-done
	}
	s.cancel()
}

// janitor periodically evicts finished sweeps older than Retain.
func (s *Server) janitor() {
	defer s.janitors.Done()
	interval := s.opts.Retain / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.front.expire()
		}
	}
}

// Place implements Executor: every job runs here.
func (s *Server) Place([]allarm.Job) ([]string, error) { return nil, nil }

// Run implements Executor: it drives one sweep through a Runner whose
// Exec is the cached, coalesced, pool-bounded executor.
func (s *Server) Run(st *SweepState) {
	s.actives.Add(1)
	defer s.actives.Add(-1)
	// Each job's key, computed once in Start and reused by Exec and
	// JobDone (which run on the same worker). A job skipped before Start
	// keeps "", which unregisterJobRef ignores.
	keys := make([]string, st.Sweep.Len())
	// The sweep's timeline gets a started and a finished event per job
	// and its closing event.
	st.tl.Grow(2*st.Sweep.Len() + 1)
	runner := &allarm.Runner{
		// Per-sweep fan-out matches the pool width; the pool itself is
		// enforced globally in exec, so concurrent sweeps share — not
		// multiply — the simulation workers. Cache hits and coalesced
		// jobs resolve without occupying a pool slot.
		Parallelism: s.workers,
		Start: func(i, _ int, j allarm.Job) {
			keys[i] = j.Key()
			s.registerJobRef(keys[i], st, i)
			st.Timeline("started", i, "", "")
			st.Update("", i, JobRunning, "")
		},
		JobDone: func(i, _ int, r allarm.SweepResult) {
			s.unregisterJobRef(keys[i], st, i)
			status := jobStatus(r)
			st.Timeline("finished", i, "", status)
			st.Deliver("", i, allarm.RecordOf(r), status)
		},
		Exec: func(ctx context.Context, i int, j allarm.Job) (*allarm.Result, error) {
			return s.exec(ctx, keys[i], j)
		},
	}
	runner.Run(s.ctx, st.Sweep)
	// Only a drain skips or aborts jobs, finishing a sweep checkpointed.
	if s.ctx.Err() == nil {
		return
	}
	if v := st.View(); v.Status == StatusCheckpointed {
		// v.Done counts every terminal job; the line counts finished ones.
		done := 0
		for _, j := range v.Jobs {
			if j.Status == JobDone {
				done++
			}
		}
		s.logf("sweep %s: checkpointed with %d/%d jobs done", st.ID, done, len(v.Jobs))
	}
}

// jobStatus classifies a finished job. On cancellation a job is aborted
// iff a partial result exists — the predicate the emitters use for the
// "aborted" flag, so the status endpoint and the results rows never
// disagree — and skipped when no simulation was interrupted.
func jobStatus(r allarm.SweepResult) string {
	switch {
	case r.Err == nil:
		return JobDone
	case r.Aborted():
		return JobAborted
	case allarm.IsCancellation(r.Err):
		return JobSkipped
	default:
		return JobError
	}
}

// Timeline implements Executor: the sweep's own events.
func (s *Server) Timeline(_ *http.Request, st *SweepState) []obs.TimelineEvent { return st.Events() }

// Forget implements Executor: the journal and result store hold all of
// a local sweep's state, and the Front already drops its journal entry.
func (s *Server) Forget(*SweepState) {}

// exec runs one job, whose Job.Key is key, through the two-tier cache,
// the singleflight group and the bounded pool, in that order. It is the
// Runner.Exec of every sweep, so its outcome for a job must equal
// Job.RunCtx's — it only ever returns a result the simulator produced
// for exactly this key.
func (s *Server) exec(ctx context.Context, key string, job allarm.Job) (*allarm.Result, error) {
	if res, src := s.cache.Get(key); src != tierNone {
		s.countHit(src)
		return res, nil
	}
	fl, leader := s.flights.join(key)
	if !leader {
		s.met.coalesced.Add(1)
		select {
		case <-fl.done:
			return fl.res, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	res, err := s.lead(ctx, key, job)
	s.flights.finish(key, fl, res, err)
	return res, err
}

func (s *Server) countHit(src tier) {
	s.met.cacheHits.Add(1)
	if src == tierDisk {
		s.met.cacheDiskHits.Add(1)
	}
}

// lead executes a flight's simulation as its leader.
func (s *Server) lead(ctx context.Context, key string, job allarm.Job) (*allarm.Result, error) {
	// Re-check the cache: the flight we would have followed may have
	// finished between our cache probe and taking leadership.
	if res, src := s.cache.Get(key); src != tierNone {
		s.countHit(src)
		return res, nil
	}
	// The waiting counter is the preemption signal: while it is
	// non-zero, a checkpointing long job inside the pool yields its slot
	// at the next checkpoint boundary (see runCheckpointed).
	s.waiting.Add(1)
	enqueued := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-ctx.Done():
		s.waiting.Add(-1)
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	s.met.queueWait.ObserveSince(enqueued)

	s.met.cacheMisses.Add(1)
	start := time.Now()
	res, err := s.runJob(ctx, job)
	s.met.jobsRun.Add(1)
	s.met.jobDuration.ObserveSince(start)
	if err != nil {
		switch {
		case !allarm.IsCancellation(err):
			s.met.jobErrors.Add(1)
		case res != nil:
			// Counted here, at the one simulation the flight actually
			// interrupted — coalesced followers sharing the partial
			// result must not inflate the metric.
			s.met.jobsAborted.Add(1)
		}
		// An aborted job's partial result travels with its error so the
		// sweep can checkpoint it — but it is never cached: only
		// complete results are content-addressed.
		return res, err
	}
	s.met.simEvents.Add(res.Events)
	s.met.simWallNs.Add(uint64(time.Since(start).Nanoseconds()))
	if err := s.cache.Add(key, res); err != nil {
		s.logf("result store: %s: %v", key, err)
	}
	return res, nil
}

// registerJobRef records that sweep st's job idx is in flight under
// key, so runner-level events (checkpoint, preempt, resume) reach its
// timeline.
func (s *Server) registerJobRef(key string, st *SweepState, idx int) {
	s.mu.Lock()
	s.jobRefs[key] = append(s.jobRefs[key], jobRef{st, idx})
	s.mu.Unlock()
}

func (s *Server) unregisterJobRef(key string, st *SweepState, idx int) {
	s.mu.Lock()
	refs := s.jobRefs[key]
	for i, ref := range refs {
		if ref.st == st && ref.idx == idx {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(s.jobRefs, key)
	} else {
		s.jobRefs[key] = refs
	}
	s.mu.Unlock()
}

// jobEvent fans a runner-level event out to the timeline of every
// sweep currently running the job — with coalescing, one execution can
// serve several sweeps, and each should see the event. A "resumed"
// event also flags each job view.
func (s *Server) jobEvent(key, event, detail string) {
	s.mu.Lock()
	refs := append([]jobRef(nil), s.jobRefs[key]...)
	s.mu.Unlock()
	for _, ref := range refs {
		if event == "resumed" {
			ref.st.setResumed(ref.idx)
		}
		ref.st.Timeline(event, ref.idx, "", detail)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.front.draining() {
		status = "draining"
	}
	WriteJSON(w, map[string]string{"status": status})
}
