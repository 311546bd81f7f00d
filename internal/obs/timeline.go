package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// A TimelineEvent is one step in a sweep's life: accepted, expanded,
// assigned (router→shard), started / checkpointed / preempted /
// resumed / finished (per job), gathered, requeued, done. Job is the
// job index the event concerns, -1 for sweep-level events. Shard names
// the shard a merged event came from (router view only). RequestID
// ties the event back to the request logs on every daemon it crossed.
type TimelineEvent struct {
	Time      time.Time `json:"ts"`
	Event     string    `json:"event"`
	Job       int       `json:"job"`
	Shard     string    `json:"shard,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
}

// TimelineView is the JSON body of GET /v1/sweeps/{id}/timeline.
type TimelineView struct {
	ID     string          `json:"id"`
	Events []TimelineEvent `json:"events"`
}

// Timeline is an append-only, concurrency-safe event record for one
// sweep. Appends happen on submit/runner/checkpoint paths; snapshots
// on the timeline endpoint.
type Timeline struct {
	mu     sync.Mutex
	events []TimelineEvent
}

// Add appends an event, stamping Time with the current instant if the
// caller left it zero.
func (t *Timeline) Add(e TimelineEvent) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Grow makes room for n more events, so the next n Adds do not grow
// the record.
func (t *Timeline) Grow(n int) {
	t.mu.Lock()
	t.events = slices.Grow(t.events, n)
	t.mu.Unlock()
}

// Snapshot returns a copy of the events recorded so far.
func (t *Timeline) Snapshot() []TimelineEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimelineEvent(nil), t.events...)
}

// SortEvents orders merged events by timestamp, stably, so events from
// different daemons interleave chronologically while same-instant
// events keep their per-daemon order.
func SortEvents(events []TimelineEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
}
