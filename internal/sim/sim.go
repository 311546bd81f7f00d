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
// The queue is a hand-rolled 4-ary min-heap. Its array holds only
// pointer-free keys (at, seq, slot), so sifting moves 24-byte values,
// copies no pointers and pays no GC write barriers; the Handler a key
// fires lives in a side slab at index slot. The slab and the key array
// always have the same capacity, and the key array's tail beyond the
// live heap doubles as the free-slot stack: a pop writes the fired
// key's slot into the position it vacates, and a push takes the slot
// already stored at the position it fills. Both grow together, only
// when the queue outgrows its high-water mark, so scheduling allocates
// nothing in steady state. A pop nils the fired handler's slab entry, so
// the engine never keeps a fired handler — or anything it references —
// reachable.
//
// Keys compare as one 128-bit number at<<64|seq through carry-chained
// subtraction, and a sift-down level with all four children present
// picks the minimum child by a two-round tournament of such compares
// selected arithmetically, not by branches: heap order there is data-
// dependent and a mispredicted branch costs more than the compare. The
// sift rules — the exact strict comparisons, and the first of equal
// children winning — fix the array layout for a given schedule;
// ForEachPending exposes that layout to checkpoints, which is why the
// heap's shape, not only its pop order, is part of its contract.
//
// # Events and handlers
//
// Everything scheduled is a Handler: a typed object whose Handle method
// runs at the scheduled time. Model components allocate their handler
// records once — or keep a FreeList of them — and re-schedule them for
// every occurrence (message deliveries, controller pipelines, CPU issue
// loops), so steady-state simulation schedules no memory at all, and a
// checkpoint can encode every pending event by its record type.
// HandlerFunc adapts a closure for tests and one-off call sites; it
// cannot be checkpointed.
//
// # Cancellation
//
// RunCtx polls ctx.Done once per CancelCheckBudget events (a single
// non-blocking channel read, no allocation, amortised to nothing on the
// hot path) so a multi-minute whole-machine run can be aborted from
// outside within one budget's worth of events. Cancellation is
// cooperative and leaves the engine consistent: Now, Fired and the
// queue reflect exactly the events that fired, so a caller can collect
// partial statistics or — because simulations are deterministic —
// simply re-run from scratch.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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

// key is one queued event's heap entry; the Handler it fires is
// slab[slot]. Beyond the live heap, only slot is meaningful: it names a
// free slab entry.
type key struct {
	at   Time // never negative, so it orders as a uint64
	seq  uint64
	slot uint32
}

// less returns 1 when a orders before b — earlier time first, FIFO on
// ties — and 0 otherwise, as the borrow out of the 128-bit subtraction
// (a.at, a.seq) - (b.at, b.seq).
func less(a, b *key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// minHeapCap is the queue's first capacity; it doubles from there.
// Whole-machine runs queue from a few to about 150 events, so a start
// this small skips the tiniest growths without leaving a mostly unused
// tail on shallow runs.
const minHeapCap = 20

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	queue []key     // 4-ary min-heap; queue[len:cap] holds the free slots
	slab  []Handler // len == cap(queue); live entries are the queued handlers
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// grow doubles the capacity of the full queue and its slab, numbering
// the new free slots in the key array's new tail.
func (e *Engine) grow() {
	n := len(e.queue)
	c := max(2*n, minHeapCap)
	q := make([]key, c)
	copy(q, e.queue)
	for i := n; i < c; i++ {
		q[i].slot = uint32(i)
	}
	slab := make([]Handler, c)
	copy(slab, e.slab)
	e.queue, e.slab = q[:n], slab
}

// push queues h under (at, seq), restoring the heap invariant by
// sifting the new key up through parents that do not order before it.
func (e *Engine) push(at Time, seq uint64, h Handler) {
	n := len(e.queue)
	if n == cap(e.queue) {
		e.grow()
	}
	q := e.queue[:n+1]
	e.queue = q
	it := key{at: at, seq: seq, slot: q[n].slot}
	e.slab[it.slot] = h
	i := n
	for i > 0 {
		p := (i - 1) >> 2
		if less(&q[p], &it) != 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

// pop removes the earliest event and returns its time and handler. The
// handler's slab entry is cleared and its slot stored in the vacated
// tail position, so the engine keeps no reference to it.
func (e *Engine) pop() (Time, Handler) {
	q := e.queue
	top := q[0]
	h := e.slab[top.slot]
	e.slab[top.slot] = nil
	n := len(q) - 1
	it := q[n]
	q[n].slot = top.slot
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top.at, h
	}
	// Sift the former tail down from the root along min-child links,
	// moving children up into the hole rather than swapping.
	i := 0
	for {
		c := i<<2 + 1
		var m int
		if c+3 < n {
			// All four children exist: pick the first minimum by a
			// tournament, each round a branch-free select.
			a := c + int(less(&q[c+1], &q[c]))
			b := c + 2 + int(less(&q[c+3], &q[c+2]))
			m = a ^ (a^b)&-int(less(&q[b], &q[a]))
		} else {
			if c >= n {
				break
			}
			m = c
			for j := c + 1; j < n; j++ {
				if less(&q[j], &q[m]) != 0 {
					m = j
				}
			}
		}
		if less(&it, &q[m]) != 0 {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = it
	return top.at, h
}

// checkTime panics when at is in the past: scheduling before Now always
// indicates a model bug, and silently reordering time would corrupt
// results.
func (e *Engine) checkTime(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", at, e.now))
	}
}

// Schedule schedules h.Handle to run at the absolute time at.
// Scheduling in the past panics (see checkTime), as does a nil h.
func (e *Engine) Schedule(at Time, h Handler) {
	e.checkTime(at)
	if h == nil {
		panic("sim: nil handler")
	}
	e.seq++
	e.push(at, e.seq, h)
}

// ScheduleAfter schedules h.Handle to run delay picoseconds from now.
// Negative delays panic (see Schedule).
func (e *Engine) ScheduleAfter(delay Time, h Handler) { e.Schedule(e.now+delay, h) }

// Run executes events in timestamp order until the queue is empty or
// limit events have fired (limit 0 means no limit). It returns the
// number of events fired by this call.
func (e *Engine) Run(limit uint64) uint64 {
	fired, _ := e.run(nil, limit)
	return fired
}

// CancelCheckBudget is the number of events RunCtx fires between polls
// of ctx.Done. It bounds both the cancellation latency (at most one
// budget of events after ctx is cancelled) and the cancellation
// overhead (one non-blocking channel read per budget, unmeasurable
// against the thousands of events it amortises over).
const CancelCheckBudget = 4096

// RunCtx executes events like Run but additionally stops when ctx is
// cancelled, checking ctx.Done before the first event and then every
// CancelCheckBudget events. It returns the number of events fired and,
// when the run was cut short by cancellation, ctx's error; the queue
// keeps its unfired events so the caller can inspect or collect partial
// state. A context that can never be cancelled (Done() == nil, e.g.
// context.Background()) adds no per-event work at all.
func (e *Engine) RunCtx(ctx context.Context, limit uint64) (uint64, error) {
	fired, cancelled := e.run(ctx.Done(), limit)
	if cancelled {
		return fired, ctx.Err()
	}
	return fired, nil
}

// run is the one event loop behind Run and RunCtx. It fires events until
// the queue empties, limit events have fired (0: no limit) or done is
// closed, polling done only between budgets of events. With a nil done
// the budget is the limit, so the inner loop carries no extra check.
func (e *Engine) run(done <-chan struct{}, limit uint64) (fired uint64, cancelled bool) {
	start := e.fired
	end := uint64(math.MaxUint64)
	if limit > 0 && limit < end-start {
		end = start + limit
	}
	for {
		stop := end
		if done != nil {
			select {
			case <-done:
				return e.fired - start, true
			default:
			}
			stop = min(end, e.fired+CancelCheckBudget)
		}
		for e.fired < stop && len(e.queue) > 0 {
			at, h := e.pop()
			e.now = at
			h.Handle(at)
			e.fired++
		}
		if e.fired == end || len(e.queue) == 0 {
			return e.fired - start, false
		}
	}
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
