package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
)

// Request bounds.
const (
	// maxSubmitBytes bounds a POST /v1/sweeps body.
	maxSubmitBytes = 1 << 20
	// maxTraceBytes bounds a POST /v1/traces body.
	maxTraceBytes = 64 << 20
	// maxSweepJobs bounds one request's expanded job count, checked
	// before any job is built. At ≈110 bytes per JobSpec, the router's
	// largest explicit sub-sweep then stays under maxSubmitBytes.
	maxSweepJobs = 4096
)

// Executor runs the sweeps a Front accepts. The Front owns everything a
// client sees — sweep ids, job views, the SSE history, the timeline, the
// journal and the rendered results — and an Executor only decides where
// and how jobs run: Server simulates them in its worker pool,
// fleet.Router scatters them over allarm-serve shards.
type Executor interface {
	// Place assigns each job of a validated submission to where it will
	// run, before the sweep gets an id: nil for local execution, one
	// shard name per job on the router. An error refuses the submission
	// with 503.
	Place(jobs []allarm.Job) ([]string, error)
	// Run executes an accepted or recovered sweep, reporting progress
	// through the SweepState; the Front calls it in a goroutine that
	// Close waits for.
	Run(st *SweepState)
	// Timeline returns the events GET /v1/sweeps/{id}/timeline serves.
	Timeline(r *http.Request, st *SweepState) []obs.TimelineEvent
	// Forget drops whatever the executor keeps for a deleted or expired
	// sweep.
	Forget(st *SweepState)
}

// FrontConfig configures a Front.
type FrontConfig struct {
	// IDPrefix starts every sweep id ("sw-" on a daemon, "fs-" on the
	// router).
	IDPrefix string
	// Dir, when non-empty, is the journal directory (see journal):
	// accepted sweeps and uploaded traces survive a restart.
	Dir string
	// MaxTraces bounds the uploads kept in memory; KeepTraceBytes keeps
	// their raw bytes too, and each sweep those of the traces it uses.
	MaxTraces      int
	KeepTraceBytes bool
	// Incomplete is the final status of a sweep with a skipped or aborted
	// job (StatusCheckpointed or StatusDegraded).
	Incomplete string
	// Retain, when positive, evicts finished sweeps this long after they
	// finished.
	Retain time.Duration
	Guard  *Guard
	Logger *slog.Logger
	// Registry receives the lifecycle counters and the per-route request
	// metrics, named with MetricPrefix.
	Registry     *obs.Registry
	MetricPrefix string
}

// Front is the sweep API both daemons serve: submit, list, status,
// delete, results, events, timeline and trace upload, plus discovery,
// admin-gated pprof and request instrumentation — one implementation
// over one Executor.
type Front struct {
	exec    Executor
	cfg     FrontConfig
	journal *journal // nil: nothing persists
	traces  *traceStore
	mux     *http.ServeMux
	handler http.Handler

	submitted, recovered, deleted, expired, tracesUploaded *obs.Counter
	completed, incomplete                                  *obs.Counter

	mu      sync.Mutex
	closing bool
	sweeps  map[string]*SweepState
	order   []string
	nextID  uint64
	work    sync.WaitGroup // runs and Go goroutines
}

// FrontCounts are the lifecycle counters both daemons report in their
// /metrics JSON. Completed counts sweeps that finished done, Incomplete
// those that finished with FrontConfig.Incomplete.
type FrontCounts struct {
	Submitted, Recovered, Deleted, Expired, TracesUploaded uint64
	Completed, Incomplete                                  uint64
}

// NewFront builds the front end over exec. Daemon-specific routes are
// added with HandleFunc; Recover then replays the journal.
func NewFront(exec Executor, cfg FrontConfig) (*Front, error) {
	f := &Front{exec: exec, cfg: cfg, mux: http.NewServeMux(), sweeps: make(map[string]*SweepState)}
	var traceDir string
	if cfg.Dir != "" {
		j, err := openJournal(cfg.Dir, f.Logf)
		if err != nil {
			return nil, err
		}
		f.journal, traceDir = j, filepath.Join(cfg.Dir, "traces")
	}
	f.traces = &traceStore{dir: traceDir, max: cfg.MaxTraces, keepRaw: cfg.KeepTraceBytes, logf: f.Logf, entries: make(map[string]traceEntry)}
	p, reg := cfg.MetricPrefix, cfg.Registry
	f.submitted = reg.Counter(p+"sweeps_submitted_total", "Sweeps accepted by POST /v1/sweeps.")
	f.recovered = reg.Counter(p+"sweeps_recovered_total", "Sweeps rebuilt from the journal at boot.")
	f.deleted = reg.Counter(p+"sweeps_deleted_total", "Sweeps evicted by DELETE /v1/sweeps/{id}.")
	f.expired = reg.Counter(p+"sweeps_expired_total", "Finished sweeps evicted by the -retain reaper.")
	f.tracesUploaded = reg.Counter(p+"traces_uploaded_total", "Traces accepted by POST /v1/traces.")
	f.completed = reg.Counter(p+"sweeps_completed_total", "Sweeps that finished with every job done.")
	f.incomplete = reg.Counter(p+"sweeps_"+cfg.Incomplete+"_total", "Sweeps that finished with a job skipped or aborted.")

	f.mux.HandleFunc("POST /v1/sweeps", f.handleSubmit)
	f.mux.HandleFunc("GET /v1/sweeps", f.handleList)
	f.mux.HandleFunc("GET /v1/sweeps/{id}", f.handleStatus)
	f.mux.HandleFunc("DELETE /v1/sweeps/{id}", f.handleDelete)
	f.mux.HandleFunc("GET /v1/sweeps/{id}/results", f.handleResults)
	f.mux.HandleFunc("GET /v1/sweeps/{id}/events", f.handleEvents)
	f.mux.HandleFunc("GET /v1/sweeps/{id}/timeline", adminOnly(f.handleTimeline))
	f.mux.HandleFunc("POST /v1/traces", f.handleTraceUpload)
	f.mux.HandleFunc("GET /v1/policies", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, allarm.DescribePolicies())
	})
	f.mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, allarm.DescribeBenchmarks())
	})
	// The build version is how operators (and the router) check skew.
	f.mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"version": allarm.Version})
	})
	// pprof is admin-gated like the timeline: with a Guard the bearer is
	// already verified (Wrap 401s otherwise) and non-admin clients get
	// 403; without -auth it is open, matching /metrics conventions.
	f.mux.HandleFunc("/debug/pprof/", adminOnly(pprof.Index))
	f.mux.HandleFunc("/debug/pprof/cmdline", adminOnly(pprof.Cmdline))
	f.mux.HandleFunc("/debug/pprof/profile", adminOnly(pprof.Profile))
	f.mux.HandleFunc("/debug/pprof/symbol", adminOnly(pprof.Symbol))
	f.mux.HandleFunc("/debug/pprof/trace", adminOnly(pprof.Trace))
	// Request-id minting, request logging and per-route latency wrap
	// outside the Guard so rejected requests are observable too.
	f.handler = obs.Instrument(cfg.Guard.Wrap(f.mux), obs.MiddlewareOptions{
		Logger:   cfg.Logger,
		Registry: reg,
		Prefix:   p,
		Route: func(r *http.Request) string {
			_, pattern := f.mux.Handler(r)
			return pattern
		},
	})
	return f, nil
}

// Handler returns the HTTP handler (behind the Guard when configured).
func (f *Front) Handler() http.Handler { return f.handler }

// HandleFunc adds a daemon-specific route.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// expand expands req against the trace store. With KeepTraceBytes it
// also returns the raw bytes of every trace the sweep references, read
// in the same lookup as the workload: the sweep holds them for its
// lifetime, so a later eviction cannot strand the router's re-upload.
func (f *Front) expand(req *SweepRequest) (*allarm.Sweep, map[string][]byte, error) {
	var raws map[string][]byte
	sweep, err := ExpandSweep(req, func(id string) allarm.Workload {
		e := f.traces.load(id)
		if e.raw != nil {
			if raws == nil {
				raws = make(map[string][]byte)
			}
			raws[id] = e.raw
		}
		return e.wl
	})
	return sweep, raws, err
}

// Journal rewrites a sweep's journal entry (after its jobs moved).
func (f *Front) Journal(st *SweepState) { f.journal.writeSweep(st) }

// JournalRecords rewrites a sweep's journaled records.
func (f *Front) JournalRecords(st *SweepState) { f.journal.writeRecords(st) }

// Logf logs one lifecycle line at info (no-op without a Logger, and
// not formatted when the Logger drops info lines).
func (f *Front) Logf(format string, args ...any) {
	if l := f.cfg.Logger; l != nil && l.Enabled(context.Background(), slog.LevelInfo) {
		l.Info(fmt.Sprintf(format, args...))
	}
}

// Counts snapshots the lifecycle counters.
func (f *Front) Counts() FrontCounts {
	return FrontCounts{
		Submitted: f.submitted.Load(), Recovered: f.recovered.Load(),
		Deleted: f.deleted.Load(), Expired: f.expired.Load(),
		TracesUploaded: f.tracesUploaded.Load(),
		Completed:      f.completed.Load(), Incomplete: f.incomplete.Load(),
	}
}

// countFinish makes st count and log its finish transitions from now
// on. The count lands under the sweep's lock, before any client can see
// the terminal status, so a client that saw it also sees the count.
func (f *Front) countFinish(st *SweepState) {
	st.onFinish = func(status string) {
		if status == StatusDone {
			f.completed.Add(1)
		} else {
			f.incomplete.Add(1)
		}
		f.Logf("sweep %s: %s (%d jobs)", st.ID, status, len(st.jobs))
	}
}

// draining reports whether Close has begun.
func (f *Front) draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closing
}

// Go runs fn in a goroutine Close waits for, unless the front is
// already closing (then fn does not run).
func (f *Front) Go(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closing {
		return
	}
	f.work.Add(1)
	go func() {
		defer f.work.Done()
		fn()
	}()
}

// Close refuses new sweeps (503) from now on, calls stop when non-nil,
// and returns once every sweep run and Go goroutine has exited.
func (f *Front) Close(stop func()) {
	f.mu.Lock()
	f.closing = true
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
	f.work.Wait()
}

// Sweeps returns every registered sweep in submission order.
func (f *Front) Sweeps() []*SweepState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*SweepState, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.sweeps[id])
	}
	return out
}

// admit registers st — minting its id when it has none — and reserves
// its run, unless the front is closing.
func (f *Front) admit(st *SweepState) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closing {
		return false
	}
	if st.ID == "" {
		f.nextID++
		st.ID = fmt.Sprintf("%s%06d", f.cfg.IDPrefix, f.nextID)
	}
	f.sweeps[st.ID] = st
	f.order = append(f.order, st.ID)
	f.work.Add(1)
	return true
}

// run hands an admitted sweep to the executor.
func (f *Front) run(st *SweepState) {
	go func() {
		defer f.work.Done()
		f.exec.Run(st)
	}()
}

func (f *Front) lookup(id string) *SweepState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sweeps[id]
}

// stampAccepted records a new sweep's first two timeline events.
func stampAccepted(st *SweepState, detail string) {
	st.Timeline("accepted", -1, "", detail)
	st.Timeline("expanded", -1, "", fmt.Sprintf("%d job(s)", st.Sweep.Len()))
}

// Recover replays the journal at boot: every journaled sweep is
// re-expanded under its original id (ExpandSweep is deterministic, so
// indices and keys line up exactly), its journaled records are
// restored, and the executor runs whatever is still owed. Entries that
// no longer expand are logged and skipped — the daemon must come up.
func (f *Front) Recover() {
	entries := f.journal.loadSweeps(f.cfg.IDPrefix)
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.ID, f.cfg.IDPrefix+"%d", &n); err == nil && n > f.nextID {
			f.nextID = n
		}
	}
	for _, e := range entries {
		sweep, raws, err := f.expand(e.Request)
		var shards []string
		if err == nil {
			shards, err = e.shards(sweep.Len())
		}
		if err != nil {
			f.Logf("recover %s: %v", e.ID, err)
			continue
		}
		st := newSweepState(sweep, e.Request, shards, e.Created, f.cfg.Incomplete)
		st.traces = raws
		// Recovery has no inbound request; a fresh correlation id still
		// stitches the resumed run's logs and timeline together.
		st.ID, st.recovered, st.ReqID = e.ID, true, obs.NewRequestID()
		stampAccepted(st, "recovered from journal")
		for _, l := range f.journal.loadRecords(e.ID) {
			if l.Index >= 0 && l.Index < sweep.Len() && jobTerminal(l.Status) {
				st.Deliver(st.jobs[l.Index].Shard, l.Index, l.Record, l.Status)
			}
		}
		f.countFinish(st) // after the replay: a finish before the restart was counted then
		f.admit(st)
		f.recovered.Add(1)
		f.Logf("sweep %s: recovered from %s (%d jobs, %d done)", e.ID, f.cfg.Dir, sweep.Len(), st.View().Done)
		f.run(st)
	}
}

// expire evicts finished sweeps that outlived the retention TTL. It runs
// from the daemon's janitor and from the listing handler, so bursty
// deployments see timely eviction without waiting a tick.
func (f *Front) expire() {
	if f.cfg.Retain <= 0 {
		return
	}
	cutoff := time.Now().Add(-f.cfg.Retain)
	var gone []*SweepState
	f.mu.Lock()
	kept := f.order[:0]
	for _, id := range f.order {
		if st := f.sweeps[id]; st.expired(cutoff) {
			delete(f.sweeps, id)
			gone = append(gone, st)
			continue
		}
		kept = append(kept, id)
	}
	f.order = kept
	f.mu.Unlock()
	for _, st := range gone {
		f.forget(st, f.expired, "expired after "+f.cfg.Retain.String()+" retention")
	}
}

// forget drops an unregistered sweep's journal entry and executor state.
// Result caches are untouched, so a forgotten sweep never costs a future
// submission its cache hits.
func (f *Front) forget(st *SweepState, count *obs.Counter, why string) {
	f.journal.remove(st.ID)
	f.exec.Forget(st)
	count.Add(1)
	f.Logf("sweep %s: %s", st.ID, why)
}

func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sweep, raws, err := f.expand(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckJobQuota(r, sweep.Len()); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	shards, err := f.exec.Place(sweep.Jobs)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	st := newSweepState(sweep, &req, shards, time.Now(), f.cfg.Incomplete)
	st.ReqID, st.traces = obs.RequestID(r.Context()), raws
	stampAccepted(st, "")
	f.countFinish(st)
	if !f.admit(st) {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("draining: not accepting new sweeps"))
		return
	}
	// Journal before acknowledging: once the client holds the id, a crash
	// must not forget the sweep.
	f.journal.writeSweep(st)
	f.submitted.Add(1)
	f.Logf("sweep %s: %d jobs submitted", st.ID, sweep.Len())
	f.run(st)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	WriteJSON(w, SubmitResponse{
		ID: st.ID, Jobs: sweep.Len(),
		Status:  "/v1/sweeps/" + st.ID,
		Results: "/v1/sweeps/" + st.ID + "/results",
		Events:  "/v1/sweeps/" + st.ID + "/events",
	})
}

func (f *Front) handleList(w http.ResponseWriter, r *http.Request) {
	f.expire()
	sts := f.Sweeps()
	views := make([]SweepView, len(sts))
	for i, st := range sts {
		views[i] = st.View()
	}
	WriteJSON(w, views)
}

// sweepOr404 resolves the {id} path parameter, answering 404 itself
// when the sweep is unknown.
func (f *Front) sweepOr404(w http.ResponseWriter, r *http.Request) *SweepState {
	st := f.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
	}
	return st
}

func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request) {
	if st := f.sweepOr404(w, r); st != nil {
		WriteJSON(w, st.View())
	}
}

// handleDelete evicts a finished sweep — its state and journal entry.
// Running sweeps are not deletable (409): cancel-by-delete would
// complicate drain semantics for little gain.
func (f *Front) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f.mu.Lock()
	st := f.sweeps[id]
	switch {
	case st == nil:
		f.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	case !st.terminal():
		f.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is still running; only finished sweeps can be deleted", id))
		return
	}
	delete(f.sweeps, id)
	for i, oid := range f.order {
		if oid == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	f.forget(st, f.deleted, "deleted")
	w.WriteHeader(http.StatusNoContent)
}

// handleResults renders a finished sweep's records through the library
// emitters, negotiated via ?format= (json, ndjson, csv, table) or the
// Accept header. The bytes are identical to what the same emitter
// produces over a local RunSweep of the same jobs, on either daemon.
func (f *Front) handleResults(w http.ResponseWriter, r *http.Request) {
	st := f.sweepOr404(w, r)
	if st == nil {
		return
	}
	recs, status, ok := st.snapshot()
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; results are available once it is done", st.ID, status))
		return
	}
	format, err := negotiateFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	emitter, ctype := formatEmitter(format)
	w.Header().Set("Content-Type", ctype)
	if err := emitter.EmitRecords(w, recs); err != nil {
		f.Logf("sweep %s: emit: %v", st.ID, err)
	}
}

// handleEvents streams a sweep's progress as Server-Sent Events: one
// "job" event per job transition and one "sweep" event per lifecycle
// transition. New subscribers first replay the full history, so a late
// subscriber still sees every transition; the stream ends when the
// sweep is final. The finish publishes a sweep event like any other
// transition, so the subscription's poke is the only wakeup needed.
// Each wake encodes its new events into one reused buffer, written once.
func (f *Front) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := f.sweepOr404(w, r)
	if st == nil {
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
	var buf []byte
	for {
		evs, final := st.eventsSince(sent)
		if len(evs) > 0 {
			buf = slices.Grow(buf[:0], 256*len(evs)) // a job frame is about 230 bytes
			for i := range evs {
				buf = evs[i].appendFrame(buf)
			}
			if _, err := w.Write(buf); err != nil {
				return // the client is gone
			}
			sent += len(evs)
			flusher.Flush()
		}
		if final {
			// Drain any events published between eventsSince and here.
			if evs, _ := st.eventsSince(sent); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-poke:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTimeline serves a sweep's lifecycle timeline, as the executor
// assembles it. Operational detail (which shard, when preempted) is
// admin-scoped under -auth, like pprof; open otherwise.
func (f *Front) handleTimeline(w http.ResponseWriter, r *http.Request) {
	st := f.sweepOr404(w, r)
	if st == nil {
		return
	}
	events := f.exec.Timeline(r, st)
	obs.SortEvents(events)
	WriteJSON(w, obs.TimelineView{ID: st.ID, Events: events})
}

// TraceResponse is the POST /v1/traces reply. Uploads are
// content-addressed: the id is a hash of the trace bytes, re-uploading
// identical bytes returns the same id on every daemon, and jobs
// reference the trace as "trace:<id>" in SweepRequest.Workloads.
type TraceResponse struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
}

func (f *Front) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading trace: %w", err))
		return
	}
	id, wl, fresh, err := f.traces.add(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing trace: %w", err))
		return
	}
	if fresh {
		f.tracesUploaded.Add(1)
		f.Logf("trace %s: %d bytes, %d threads", id, len(data), wl.Threads())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	WriteJSON(w, TraceResponse{ID: id, Workload: "trace:" + id, Threads: wl.Threads()})
}

// adminOnly wraps an operational handler (pprof, timelines) behind the
// admin scope: 403 for authenticated non-admin clients, open when no
// Guard is configured.
func adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := checkAdmin(r); err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
		h(w, r)
	}
}

// WriteJSON writes v as indented JSON (application/json unless the
// handler already chose a content type).
func WriteJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError answers code with a {"error": ...} body.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// SweepRequest is the POST /v1/sweeps body: seed workloads crossed with
// policies and probe-filter sizes, exactly like the Sweep combinators,
// plus optional explicit per-job specs (Jobs).
type SweepRequest struct {
	// Benchmarks are preset names; Workloads are "bench:NAME" or
	// "trace:ID" specs (IDs from POST /v1/traces). Together they seed
	// the crossed grid; at least one job (grid or explicit) is required.
	Benchmarks []string `json:"benchmarks,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	// Policies are registered policy names (default: baseline only).
	Policies []string `json:"policies,omitempty"`
	// PFKiB are probe-filter coverages to cross (default: the config's).
	PFKiB []int `json:"pf_kib,omitempty"`
	// Jobs are explicit per-job specs appended after the crossed grid,
	// in order, NOT expanded by Policies/PFKiB — each carries its own.
	// They express arbitrary job subsets the cross-product cannot, which
	// is how allarm-router scatters a sweep: every shard receives
	// exactly its hash-assigned jobs as an explicit list, in the global
	// spec order, so the gathered results merge deterministically.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Config overrides the default experiment-scale configuration.
	Config *ConfigOverrides `json:"config,omitempty"`
}

// JobSpec pins down one job exactly: a workload under one policy and
// probe-filter size. Zero Policy/PFKiB keep the request config's
// defaults, so a spec expands to the same Job — and therefore the same
// golden-tested Job.Key — the crossed grid would have produced.
type JobSpec struct {
	// Workload is "bench:NAME" or "trace:ID".
	Workload string `json:"workload"`
	// Policy is a registered policy name ("" = the config's default).
	Policy string `json:"policy,omitempty"`
	// PFKiB is the probe-filter coverage (0 = the config's default).
	PFKiB int `json:"pf_kib,omitempty"`
}

// ConfigOverrides are the Config fields the API exposes; zero values
// keep the server default (ExperimentConfig, the CLI tools' default).
type ConfigOverrides struct {
	Threads           int     `json:"threads,omitempty"`
	AccessesPerThread int     `json:"accesses_per_thread,omitempty"`
	Seed              *uint64 `json:"seed,omitempty"`
	// FullScale selects the unscaled Table I SRAM sizes (DefaultConfig).
	FullScale       bool `json:"full_scale,omitempty"`
	CheckInvariants bool `json:"check_invariants,omitempty"`
}

// SubmitResponse is the POST /v1/sweeps reply.
type SubmitResponse struct {
	ID      string `json:"id"`
	Jobs    int    `json:"jobs"`
	Status  string `json:"status_url"`
	Results string `json:"results_url"`
	Events  string `json:"events_url"`
}

// RequestConfig resolves a request's configuration: the experiment-
// scale default with the request's overrides applied. It is split from
// ExpandSweep because allarm-router needs the same resolution to
// encode shard-local JobSpecs.
func RequestConfig(o *ConfigOverrides) allarm.Config {
	cfg := allarm.ExperimentConfig()
	if o != nil {
		if o.FullScale {
			cfg = allarm.DefaultConfig()
		}
		if o.Threads > 0 {
			cfg.Threads = o.Threads
		}
		if o.AccessesPerThread > 0 {
			cfg.AccessesPerThread = o.AccessesPerThread
		}
		if o.Seed != nil {
			cfg.Seed = *o.Seed
		}
		cfg.CheckInvariants = o.CheckInvariants
	}
	return cfg
}

// ExpandSweep validates req and expands it into a Sweep: the crossed
// grid (Benchmarks/Workloads × Policies × PFKiB) followed by the
// explicit Jobs, in order. A request over maxSweepJobs jobs is refused
// before any job is built. traces resolves "trace:ID" workload specs
// (nil means traces are not supported). The expansion is deterministic
// — the same request always yields the same jobs in the same order —
// which both restart recovery and the router's scatter/gather merge
// depend on: a shard expands a sub-sweep exactly as the router did.
func ExpandSweep(req *SweepRequest, traces func(id string) allarm.Workload) (*allarm.Sweep, error) {
	if jobCount(req) > maxSweepJobs {
		return nil, fmt.Errorf("sweep expands to more than %d jobs", maxSweepJobs)
	}
	cfg := RequestConfig(req.Config)

	known := make(map[string]bool)
	for _, b := range allarm.Benchmarks() {
		known[b] = true
	}
	resolve := func(spec string) (allarm.Job, error) {
		job := allarm.Job{Config: cfg}
		switch {
		case strings.HasPrefix(spec, "bench:"):
			name := strings.TrimPrefix(spec, "bench:")
			if !known[name] {
				return job, fmt.Errorf("unknown benchmark %q (see GET /v1/benchmarks)", name)
			}
			job.Benchmark = name
		case strings.HasPrefix(spec, "trace:"):
			id := strings.TrimPrefix(spec, "trace:")
			var wl allarm.Workload
			if traces != nil {
				wl = traces(id)
			}
			if wl == nil {
				return job, fmt.Errorf("unknown trace %q (upload with POST /v1/traces)", id)
			}
			job.Workload = wl
		default:
			return job, fmt.Errorf("workload %q: want bench:NAME or trace:ID", spec)
		}
		return job, nil
	}

	var jobs []allarm.Job
	for _, b := range req.Benchmarks {
		if !known[b] {
			return nil, fmt.Errorf("unknown benchmark %q (see GET /v1/benchmarks)", b)
		}
		jobs = append(jobs, allarm.Job{Benchmark: b, Config: cfg})
	}
	for _, spec := range req.Workloads {
		job, err := resolve(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}

	sweep := allarm.NewSweep(jobs...)
	if len(req.Policies) > 0 {
		pols := make([]allarm.Policy, len(req.Policies))
		for i, name := range req.Policies {
			p, err := allarm.ParsePolicy(name)
			if err != nil {
				return nil, err
			}
			pols[i] = p
		}
		sweep.CrossPolicies(pols...)
	}
	if len(req.PFKiB) > 0 {
		sizes := make([]int, len(req.PFKiB))
		for i, kib := range req.PFKiB {
			if kib <= 0 {
				return nil, fmt.Errorf("pf_kib must be positive, got %d", kib)
			}
			sizes[i] = kib << 10
		}
		sweep.CrossPFSizes(sizes...)
	}

	// Explicit jobs ride after the grid, uncrossed: each spec carries
	// its own policy and probe-filter size.
	for _, js := range req.Jobs {
		job, err := resolve(js.Workload)
		if err != nil {
			return nil, err
		}
		if js.Policy != "" {
			p, err := allarm.ParsePolicy(js.Policy)
			if err != nil {
				return nil, err
			}
			job.Config.Policy = p
		}
		if js.PFKiB < 0 {
			return nil, fmt.Errorf("pf_kib must be positive, got %d", js.PFKiB)
		}
		if js.PFKiB > 0 {
			job.Config.PFBytes = js.PFKiB << 10
		}
		sweep.Add(job)
	}

	if sweep.Len() == 0 {
		return nil, fmt.Errorf("empty sweep: give at least one benchmark, workload or job")
	}
	return sweep, nil
}

// jobCount is the number of jobs req expands to, or more than
// maxSweepJobs without computing a product that could overflow.
func jobCount(req *SweepRequest) int {
	n := len(req.Benchmarks) + len(req.Workloads)
	for _, k := range []int{len(req.Policies), len(req.PFKiB)} {
		if k > 1 && n > maxSweepJobs/k {
			return maxSweepJobs + 1
		}
		n *= max(1, k)
	}
	return n + len(req.Jobs)
}

// formatEmitter maps a negotiated format name to its emitter and
// content type.
func formatEmitter(format string) (allarm.RecordEmitter, string) {
	switch format {
	case "csv":
		return allarm.CSVEmitter{}, "text/csv; charset=utf-8"
	case "ndjson":
		return allarm.NDJSONEmitter{}, "application/x-ndjson"
	case "table":
		return &allarm.TableEmitter{}, "text/plain; charset=utf-8"
	default:
		return allarm.JSONEmitter{Indent: true}, "application/json"
	}
}

// negotiateFormat picks the results rendering: an explicit ?format=
// wins (unknown values are an error, like every other request field),
// then the Accept header, then JSON.
func negotiateFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv", "ndjson", "table", "json":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json, ndjson, csv or table)", f)
	}
	accept := r.Header.Get("Accept")
	for _, want := range []struct{ mime, format string }{
		{"text/csv", "csv"},
		{"application/x-ndjson", "ndjson"},
		{"text/plain", "table"},
	} {
		if strings.Contains(accept, want.mime) {
			return want.format, nil
		}
	}
	return "json", nil
}
