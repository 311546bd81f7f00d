package server

import (
	"sync"
	"time"

	allarm "allarm"
	"allarm/internal/jsonw"
	"allarm/internal/obs"
)

// Sweep lifecycle states.
const (
	// StatusQueued: accepted, no job picked up yet.
	StatusQueued = "queued"
	// StatusRunning: at least one job started.
	StatusRunning = "running"
	// StatusDone: every job finished; results are final.
	StatusDone = "done"
	// StatusCheckpointed: the daemon drained before the sweep finished;
	// the partial results are final for this process (unreached jobs
	// carry the cancellation error), and with a cache directory the
	// sweep stays journaled for the next boot to finish.
	StatusCheckpointed = "checkpointed"
	// StatusDegraded: the router's gather completed but one or more
	// shards could not deliver their jobs, which are reported as skipped
	// rows. A requeue that gives those jobs a new owner re-opens the
	// sweep (status back to running).
	StatusDegraded = "degraded"
)

// Per-job states within a sweep. A drain-time cancellation produces two
// distinct terminal states: "aborted" for a job whose simulation was
// interrupted mid-run (its results row carries the partial metrics and
// "aborted":true — the status and the row always agree), and "skipped"
// for a job whose simulation never ran — whether the cancellation
// reached it in the queue, blocked on the worker pool, or waiting on a
// coalesced flight, or a dead shard never delivered it. "error" is
// reserved for simulations that actually failed.
const (
	JobPending = "pending"
	JobRunning = "running"
	JobDone    = "done"
	JobError   = "error"
	JobAborted = "aborted"
	JobSkipped = "skipped"
)

// JobView is the per-job progress record in sweep status responses.
type JobView struct {
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	PFKiB     int    `json:"pf_kib"`
	// Shard is the allarm-serve base URL the router placed the job on.
	Shard  string `json:"shard,omitempty"`
	Status string `json:"status"`
	// Resumed marks a job whose simulation continued from a
	// machine-state checkpoint left by a killed predecessor instead of
	// starting at event zero. The result is bit-identical either way.
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
}

// SweepView is the GET /v1/sweeps/{id} payload.
type SweepView struct {
	ID      string    `json:"id"`
	Status  string    `json:"status"`
	Created time.Time `json:"created"`
	// Finished is when the sweep reached a terminal state; the -retain
	// TTL counts from it. Zero while running.
	Finished time.Time `json:"finished,omitzero"`
	// Recovered marks a sweep rebuilt from the journal at boot rather
	// than submitted over the API in this daemon's lifetime.
	Recovered bool `json:"recovered,omitempty"`
	// Requeued counts the router's re-dispatch waves: times this sweep's
	// skipped jobs moved to a new ring owner after a shard failure.
	Requeued int       `json:"requeued,omitempty"`
	Total    int       `json:"total"`
	Done     int       `json:"done"`
	Jobs     []JobView `json:"jobs"`
}

// event is one SSE frame of a sweep's progress stream, captured at
// publish time and encoded only when a subscriber reads it: a "sweep"
// frame when isSweep is set, a "job" frame otherwise.
type event struct {
	isSweep bool
	sweep   sweepEvent
	job     JobEvent
}

// appendFrame appends the event's "event: …\ndata: …\n\n" frame, its
// data as encoding/json marshals the payload.
func (e *event) appendFrame(b []byte) []byte {
	var o jsonw.Object
	if e.isSweep {
		o = jsonw.Open(append(b, "event: sweep\ndata: "...))
		o.String("sweep", e.sweep.Sweep)
		o.String("status", e.sweep.Status)
		o.Int("done", e.sweep.Done)
		o.Int("total", e.sweep.Total)
	} else {
		o = jsonw.Open(append(b, "event: job\ndata: "...))
		o.String("sweep", e.job.Sweep)
		o.Int("index", e.job.Index)
		o.String("benchmark", e.job.Benchmark)
		o.String("policy", e.job.Policy)
		o.Int("pf_kib", e.job.PFKiB)
		if e.job.Shard != "" {
			o.String("shard", e.job.Shard)
		}
		o.String("status", e.job.Status)
		if e.job.Resumed {
			o.Bool("resumed", true)
		}
		o.Int("done", e.job.Done)
		o.Int("total", e.job.Total)
		if e.job.Error != "" {
			o.String("error", e.job.Error)
		}
	}
	b, _ = o.Close() // no floats, so no error
	return append(b, "\n\n"...)
}

// JobEvent is the payload of per-job SSE events.
type JobEvent struct {
	Sweep     string `json:"sweep"`
	Index     int    `json:"index"`
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	PFKiB     int    `json:"pf_kib"`
	Shard     string `json:"shard,omitempty"`
	Status    string `json:"status"`
	Resumed   bool   `json:"resumed,omitempty"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Error     string `json:"error,omitempty"`
}

// sweepEvent is the payload of sweep-level SSE events.
type sweepEvent struct {
	Sweep  string `json:"sweep"`
	Status string `json:"status"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
}

// SweepState is one accepted sweep: its expanded jobs, live per-job
// progress, the delivered records, the SSE history and the lifecycle
// timeline. The history holds typed events, encoded only for
// subscribers, so a sweep nobody watches encodes none. Progress arrives
// concurrently (worker hooks, shard streams, gathers); all mutation goes
// through the mutex, and a job that reached a terminal state never
// regresses, so replayed updates are idempotent.
//
// The sweep finishes itself: once every job is terminal AND every
// record is delivered, the status flips to done — or to the sweep's
// incomplete status (checkpointed on a daemon, degraded on the router)
// when a job was skipped or aborted. No ordering between status updates
// and record deliveries can close the sweep with rows missing.
type SweepState struct {
	// Set before the sweep is registered, immutable afterwards.
	ID      string
	created time.Time
	Sweep   *allarm.Sweep // expanded jobs in global spec order
	Request *SweepRequest // the client request (journaled, re-expanded at boot)
	ReqID   string        // correlation id stamped on the timeline

	recovered  bool
	incomplete string // terminal status when a job was skipped or aborted
	tl         obs.Timeline
	// traces holds the raw bytes of the traces the sweep references
	// (FrontConfig.KeepTraceBytes), for the router's re-upload.
	traces map[string][]byte

	mu         sync.Mutex
	status     string
	jobs       []JobView
	done       int
	records    []allarm.Record
	have       []bool
	requeues   int
	finishedAt time.Time
	history    []event // append-only
	subs       map[chan struct{}]struct{}
	// onFinish, when set, sees each finish transition under mu, before
	// any reader can observe the terminal status; it must not block or
	// call back into the sweep.
	onFinish func(status string)
}

// newSweepState builds the record of an expanded sweep; shards, when
// non-nil, places each job.
func newSweepState(sweep *allarm.Sweep, req *SweepRequest, shards []string, created time.Time, incomplete string) *SweepState {
	n := sweep.Len()
	st := &SweepState{
		created:    created,
		Sweep:      sweep,
		Request:    req,
		incomplete: incomplete,
		status:     StatusQueued,
		jobs:       make([]JobView, n),
		records:    make([]allarm.Record, n),
		have:       make([]bool, n),
		subs:       make(map[chan struct{}]struct{}),
		history:    make([]event, 0, 2*n+2), // a running and a final event per job, two sweep events
	}
	for i, j := range sweep.Jobs {
		st.jobs[i] = JobView{
			Benchmark: j.WorkloadName(),
			Policy:    j.Config.Policy.String(),
			PFKiB:     j.Config.PFBytes >> 10,
			Status:    JobPending,
		}
		if shards != nil {
			st.jobs[i].Shard = shards[i]
		}
	}
	return st
}

// jobTerminal reports whether a job status is final.
func jobTerminal(status string) bool {
	switch status {
	case JobDone, JobError, JobAborted, JobSkipped:
		return true
	}
	return false
}

// Timeline appends one lifecycle event, stamped with the sweep's
// correlation id. job is the job index, -1 for sweep-level events.
func (st *SweepState) Timeline(event string, job int, shard, detail string) {
	st.tl.Add(obs.TimelineEvent{Event: event, Job: job, Shard: shard, Detail: detail, RequestID: st.ReqID})
}

// Events snapshots the sweep's own timeline.
func (st *SweepState) Events() []obs.TimelineEvent { return st.tl.Snapshot() }

// TraceBytes returns the raw bytes of a trace the sweep references,
// captured at expansion when the front keeps trace bytes (the router
// re-uploads them to shards that lack the trace).
func (st *SweepState) TraceBytes(id string) ([]byte, bool) {
	data, ok := st.traces[id]
	return data, ok
}

// publish appends an event to the history and pokes every subscriber.
// Callers hold st.mu.
func (st *SweepState) publish(e event) {
	st.history = append(st.history, e)
	for ch := range st.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a wakeup pending
		}
	}
}

func (st *SweepState) publishSweepLocked() {
	st.publish(event{isSweep: true, sweep: sweepEvent{Sweep: st.ID, Status: st.status, Done: st.done, Total: len(st.jobs)}})
}

func (st *SweepState) publishJobLocked(i int) {
	jv := st.jobs[i]
	st.publish(event{job: JobEvent{
		Sweep: st.ID, Index: i,
		Benchmark: jv.Benchmark, Policy: jv.Policy, PFKiB: jv.PFKiB,
		Shard: jv.Shard, Status: jv.Status, Resumed: jv.Resumed,
		Done: st.done, Total: len(st.jobs), Error: jv.Error,
	}})
}

// Update applies job i's status change if shard still owns the job
// ("" for local execution). Only running and terminal states apply, and
// a terminal job never regresses: a replayed stream re-delivers old
// "running" frames, and a late reconciliation must not double-count.
func (st *SweepState) Update(shard string, i int, status, errMsg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.jobs[i].Shard == shard {
		st.updateLocked(i, status, errMsg)
	}
}

// Deliver stores job i's row and final status if shard still owns the
// job, reporting whether it applied: a row from a shard the job has
// since been moved off must not clobber its new owner's.
func (st *SweepState) Deliver(shard string, i int, rec allarm.Record, status string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.jobs[i].Shard != shard {
		return false
	}
	st.records[i] = rec
	st.have[i] = true
	st.updateLocked(i, status, rec.Error)
	st.maybeFinishLocked()
	return true
}

func (st *SweepState) updateLocked(i int, status, errMsg string) {
	if (status != JobRunning && !jobTerminal(status)) || jobTerminal(st.jobs[i].Status) {
		return
	}
	st.jobs[i].Status = status
	st.jobs[i].Error = errMsg
	if st.status == StatusQueued {
		st.status = StatusRunning
		st.publishSweepLocked()
	}
	if jobTerminal(status) {
		st.done++
	}
	st.publishJobLocked(i)
	st.maybeFinishLocked()
}

// final reports whether the sweep has reached a terminal state. Callers
// hold st.mu.
func (st *SweepState) final() bool {
	return !st.finishedAt.IsZero()
}

// maybeFinishLocked closes the sweep once every job is terminal and
// every record is present — the only way a sweep finishes — and
// publishes the final sweep event, which is the finish signal every
// subscriber waits on. Callers hold st.mu.
func (st *SweepState) maybeFinishLocked() {
	if st.final() || st.done != len(st.jobs) {
		return
	}
	for _, h := range st.have {
		if !h {
			return
		}
	}
	st.finishedAt = time.Now()
	st.status = StatusDone
	for _, j := range st.jobs {
		if j.Status == JobSkipped || j.Status == JobAborted {
			st.status = st.incomplete
			break
		}
	}
	if st.onFinish != nil {
		st.onFinish(st.status)
	}
	st.Timeline("done", -1, "", st.status)
	st.publishSweepLocked()
}

// Reassign moves every job place names a new shard for: the job goes
// back to pending there, a terminal one giving up its record and its
// place in the done count, and a finished sweep re-opens. place sees
// each job under the sweep's lock, so it must not block or call back
// into the sweep. It returns the moved indices.
func (st *SweepState) Reassign(place func(i int, jv JobView) (shard string, ok bool)) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.reassignLocked(place)
}

// Requeue is Reassign counted as one requeue wave in the status view;
// once the sweep has had budget waves it moves nothing.
func (st *SweepState) Requeue(budget int, place func(i int, jv JobView) (shard string, ok bool)) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.requeues >= budget {
		return nil
	}
	moved := st.reassignLocked(place)
	if len(moved) > 0 {
		st.requeues++
		st.publishSweepLocked()
	}
	return moved
}

func (st *SweepState) reassignLocked(place func(i int, jv JobView) (string, bool)) []int {
	var moved []int
	for i, jv := range st.jobs {
		shard, ok := place(i, jv)
		if !ok || shard == jv.Shard {
			continue
		}
		if jobTerminal(jv.Status) {
			st.done--
		}
		st.have[i] = false
		st.records[i] = allarm.Record{}
		st.jobs[i] = JobView{Benchmark: jv.Benchmark, Policy: jv.Policy, PFKiB: jv.PFKiB, Shard: shard, Status: JobPending}
		moved = append(moved, i)
	}
	if len(moved) > 0 && st.final() {
		st.status = StatusRunning
		st.finishedAt = time.Time{}
	}
	for _, i := range moved {
		st.publishJobLocked(i)
	}
	return moved
}

// setResumed flags job i as continued from a machine-state checkpoint.
func (st *SweepState) setResumed(i int) {
	st.mu.Lock()
	st.jobs[i].Resumed = true
	st.mu.Unlock()
}

// View snapshots the sweep for the status endpoint.
func (st *SweepState) View() SweepView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SweepView{
		ID: st.ID, Status: st.status, Created: st.created,
		Finished: st.finishedAt, Recovered: st.recovered, Requeued: st.requeues,
		Total: len(st.jobs), Done: st.done, Jobs: append([]JobView(nil), st.jobs...),
	}
}

// expired reports whether the sweep reached a terminal state before
// cutoff (the -retain eviction predicate). Running sweeps never expire.
func (st *SweepState) expired(cutoff time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.final() && st.finishedAt.Before(cutoff)
}

// terminal reports whether the sweep has reached a final state.
func (st *SweepState) terminal() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.final()
}

// snapshot returns the records in spec order, or ok == false while the
// sweep is still running.
func (st *SweepState) snapshot() (recs []allarm.Record, status string, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.final() {
		return nil, st.status, false
	}
	return append([]allarm.Record(nil), st.records...), st.status, true
}

// recordLine is one journaled record: the job's index, its final status
// (a record alone cannot tell "skipped by a dead shard" from a genuine
// job error) and the row itself. Records survive the JSON round trip
// losslessly, which keeps recovered results byte-identical.
type recordLine struct {
	Index  int           `json:"index"`
	Status string        `json:"status"`
	Record allarm.Record `json:"record"`
}

// lines snapshots every delivered record for the journal.
func (st *SweepState) lines() []recordLine {
	st.mu.Lock()
	defer st.mu.Unlock()
	lines := make([]recordLine, 0, st.done)
	for i, h := range st.have {
		if h {
			lines = append(lines, recordLine{Index: i, Status: st.jobs[i].Status, Record: st.records[i]})
		}
	}
	return lines
}

// subscribe registers an SSE consumer: a wakeup channel poked on every
// publish. The consumer reads history incrementally via eventsSince.
func (st *SweepState) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	st.mu.Lock()
	st.subs[ch] = struct{}{}
	st.mu.Unlock()
	return ch
}

func (st *SweepState) unsubscribe(ch chan struct{}) {
	st.mu.Lock()
	delete(st.subs, ch)
	st.mu.Unlock()
}

// eventsSince returns the history from index from on, plus whether the
// sweep is final. The history is append-only, so the returned events
// never change and are read without the lock.
func (st *SweepState) eventsSince(from int) ([]event, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.history[min(from, len(st.history)):], st.final()
}
