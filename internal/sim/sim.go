// Package sim implements the discrete-event simulation engine underlying
// the ALLARM machine model.
//
// Time is measured in integer picoseconds (type Time) so that sub-
// nanosecond quantities (a 2 GHz core cycle is 500 ps) never lose
// precision. Events are ordered by time with a stable FIFO tie-break:
// two events scheduled for the same instant fire in the order they were
// scheduled, which makes whole-machine simulations bit-reproducible.
//
// # Event queue
//
// The queue is a hand-rolled monomorphic 4-ary heap over concrete item
// values. Compared to container/heap it avoids the interface{} boxing
// that used to cost one heap allocation per scheduled event, and the
// shallower tree halves the number of swap levels per operation (pops
// do three extra comparisons per level but one fewer level of cache
// misses, a win for the multi-million-event queues whole-machine runs
// build up). Vacated slots are zeroed on every pop and drain so the
// backing array never keeps a fired event's closure — and everything it
// captured — reachable.
//
// # Events and handlers
//
// Callbacks come in two forms. An Event is a closure, convenient for
// one-off occurrences. A Handler is a typed object with a Handle method,
// meant for recurring activities (message deliveries, controller
// pipelines, CPU issue loops): a model component allocates its handler
// once — or keeps a free list of them — and re-schedules it for every
// occurrence, so steady-state simulation schedules no memory at all.
// Both forms share one queue and one FIFO tie-break sequence, so mixing
// them cannot perturb event order.
//
// # Cancellation
//
// RunCtx and RunUntilCtx are the context-aware run loops: they poll
// ctx.Done once per CancelCheckBudget events (a single non-blocking
// channel read, no allocation, amortised to nothing on the hot path) so
// a multi-minute whole-machine run can be aborted from outside within
// one budget's worth of events. Cancellation is cooperative and leaves
// the engine consistent: Now, Fired and the queue reflect exactly the
// events that fired, so a caller can collect partial statistics or —
// because simulations are deterministic — simply re-run from scratch.
package sim

import (
	"context"
	"fmt"
)

// Time is a simulated timestamp in picoseconds since the start of the run.
type Time int64

// Convenient duration units, all expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time in nanoseconds for logs and test failures.
func (t Time) String() string { return fmt.Sprintf("%gns", t.Nanoseconds()) }

// Event is a scheduled callback closure. It runs at the event's
// timestamp. For recurring activities prefer Handler, which can be
// allocated once and rescheduled for free.
type Event func(now Time)

// Handler is a typed event target: Handle runs at the scheduled time.
// Handlers exist so hot-path components can preallocate (and pool) their
// callback state instead of allocating a fresh closure per event.
type Handler interface {
	Handle(now Time)
}

// HandlerFunc adapts a closure to the Handler interface. It is a
// convenience for tests and one-off call sites; hot-path components use
// concrete handler records (which also keeps them checkpointable — a
// HandlerFunc in the queue cannot be serialized).
type HandlerFunc func(now Time)

// Handle implements Handler.
func (f HandlerFunc) Handle(now Time) { f(now) }

// item is one queued event: exactly one of fire/h is set.
type item struct {
	at   Time
	seq  uint64
	fire Event
	h    Handler
}

// before reports the queue ordering: earlier time first, FIFO on ties.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   []item // 4-ary min-heap ordered by (at, seq)
	stopped bool
	fired   uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// push inserts it, restoring the heap invariant by sifting up.
func (e *Engine) push(it item) {
	q := append(e.queue, it)
	e.queue = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if q[p].before(&q[i]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the backing array releases its references.
func (e *Engine) pop() item {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q[n] = item{}
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root along min-child links,
	// moving children up into the hole rather than swapping.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if it.before(&q[m]) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = it
	return top
}

// checkTime panics when at is in the past: scheduling before Now always
// indicates a model bug, and silently reordering time would corrupt
// results.
func (e *Engine) checkTime(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", at, e.now))
	}
}

// At schedules fn to run at the absolute time at. Scheduling in the past
// panics (see checkTime).
func (e *Engine) At(at Time, fn Event) {
	e.checkTime(at)
	if fn == nil {
		panic("sim: nil event")
	}
	e.seq++
	e.push(item{at: at, seq: e.seq, fire: fn})
}

// After schedules fn to run delay picoseconds from now. Negative delays
// panic (see At).
func (e *Engine) After(delay Time, fn Event) { e.At(e.now+delay, fn) }

// Schedule schedules h.Handle to run at the absolute time at. It is the
// Handler counterpart of At and shares its queue and tie-break order.
func (e *Engine) Schedule(at Time, h Handler) {
	e.checkTime(at)
	if h == nil {
		panic("sim: nil handler")
	}
	e.seq++
	e.push(item{at: at, seq: e.seq, h: h})
}

// ScheduleAfter schedules h.Handle to run delay picoseconds from now.
func (e *Engine) ScheduleAfter(delay Time, h Handler) { e.Schedule(e.now+delay, h) }

// dispatch fires one popped event.
func (e *Engine) dispatch(it *item) {
	e.now = it.at
	if it.fire != nil {
		it.fire(it.at)
	} else {
		it.h.Handle(it.at)
	}
	e.fired++
}

// Stop makes Run return after the currently firing event completes.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, Stop is
// called, or limit events have fired (limit <= 0 means no limit). It
// returns the number of events fired by this call.
func (e *Engine) Run(limit uint64) uint64 {
	e.stopped = false
	var fired uint64
	for len(e.queue) > 0 && !e.stopped {
		if limit > 0 && fired >= limit {
			break
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	return fired
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline stay queued; Now advances to at most deadline.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	var fired uint64
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			break
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return fired
}

// CancelCheckBudget is the number of events RunCtx and RunUntilCtx
// fire between polls of ctx.Done. It bounds both the cancellation
// latency (at most one budget of events after ctx is cancelled) and
// the cancellation overhead (one non-blocking channel read per budget,
// unmeasurable against the thousands of events it amortises over).
const CancelCheckBudget = 4096

// RunCtx executes events like Run but additionally stops when ctx is
// cancelled, checking ctx.Done every CancelCheckBudget events. It
// returns the number of events fired and, when the run was cut short by
// cancellation, ctx's error; the queue keeps its unfired events so the
// caller can inspect or collect partial state. A context that can never
// be cancelled (Done() == nil, e.g. context.Background()) adds no
// per-event work at all: RunCtx degenerates to Run.
func (e *Engine) RunCtx(ctx context.Context, limit uint64) (uint64, error) {
	done := ctx.Done()
	if done == nil {
		return e.Run(limit), nil
	}
	select {
	case <-done:
		return 0, ctx.Err()
	default:
	}
	e.stopped = false
	var fired uint64
	check := uint64(CancelCheckBudget)
	for len(e.queue) > 0 && !e.stopped {
		if limit > 0 && fired >= limit {
			break
		}
		if fired >= check {
			check = fired + CancelCheckBudget
			select {
			case <-done:
				return fired, ctx.Err()
			default:
			}
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	return fired, nil
}

// RunUntilCtx executes events with timestamps <= deadline, stopping
// early when ctx is cancelled (polled every CancelCheckBudget events,
// like RunCtx). On cancellation Now stays at the last fired event — it
// does not jump to the deadline — so partial statistics remain
// time-consistent.
func (e *Engine) RunUntilCtx(ctx context.Context, deadline Time) (uint64, error) {
	done := ctx.Done()
	if done == nil {
		return e.RunUntil(deadline), nil
	}
	select {
	case <-done:
		return 0, ctx.Err()
	default:
	}
	e.stopped = false
	var fired uint64
	check := uint64(CancelCheckBudget)
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			break
		}
		if fired >= check {
			check = fired + CancelCheckBudget
			select {
			case <-done:
				return fired, ctx.Err()
			default:
			}
		}
		it := e.pop()
		e.dispatch(&it)
		fired++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return fired, nil
}

// Drain discards all pending events without firing them. Now is
// unchanged. Discarded slots are zeroed so their callbacks become
// collectable.
func (e *Engine) Drain() {
	for i := range e.queue {
		e.queue[i] = item{}
	}
	e.queue = e.queue[:0]
}

// Ticker invokes a fixed callback every period until Cancel is called.
// It exists for periodic model activities such as thread-migration
// experiments. The Ticker is its own Handler: one allocation covers
// every tick.
type Ticker struct {
	e         *Engine
	period    Time
	fn        Event
	cancelled bool
}

// Cancel stops future ticks. Safe to call multiple times, including from
// inside the tick callback itself.
func (t *Ticker) Cancel() { t.cancelled = true }

// Handle fires one tick and reschedules the next unless cancelled.
func (t *Ticker) Handle(now Time) {
	if t.cancelled {
		return
	}
	t.fn(now)
	if !t.cancelled {
		t.e.Schedule(now+t.period, t)
	}
}

// Tick schedules fn every period starting at now+period. fn receives the
// tick time. period must be positive.
func (e *Engine) Tick(period Time, fn Event) *Ticker {
	if period <= 0 {
		panic("sim: Tick with non-positive period")
	}
	t := &Ticker{e: e, period: period, fn: fn}
	e.Schedule(e.now+period, t)
	return t
}

// FreeList is a LIFO free list of pointer-to-T records, the common
// currency of this simulator's zero-allocation scheduling: components
// Get a record, fill it, schedule it, and Put it back from its Handle
// method. Get returns a zeroed fresh record when the list is empty, so
// callers must (re)set every field they need either way.
//
// Like everything scheduled on an Engine, a FreeList is confined to its
// machine's single goroutine and is not safe for concurrent use.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently returned record, or allocates a zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

// Put returns a record for reuse. The caller clears any reference
// fields it no longer owns first (Put does not zero the record).
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
