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
// The queue is a calendar queue (Brown, CACM 1988): a ring of
// ringBuckets buckets, each bucketWidth picoseconds wide, covering the
// horizon of ringBuckets×bucketWidth picoseconds that starts at the
// bucket of the earliest pending event. Each bucket is a list sorted by
// (at, seq), kept as head and tail indices into a pointer-free node slab
// of (at, seq, next); the Handler a node fires lives in a side slab at
// the same index. A bitmap of occupied buckets finds the next non-empty
// one in a few word scans. Events beyond the horizon wait in an
// overflow ordered by (at, seq) with O(log n) operations, and move into
// the ring as the horizon advances over them.
//
// Event deltas in a machine model are a handful of fixed latencies plus
// contention, far below the horizon, so nearly every push appends at a
// bucket's tail and nearly every pop takes a bucket's head: both O(1).
// Freed nodes go on a free list threaded through next, so the slabs
// grow only when the queue outgrows its high-water mark and scheduling
// allocates nothing in steady state. A pop nils the fired handler's slab
// entry, so the engine never keeps a fired handler — or anything it
// references — reachable.
//
// # Events and handlers
//
// Everything scheduled is a Handler: a typed object whose Handle method
// runs at the scheduled time. Model components allocate their handler
// records once — or keep a FreeList or pool of them — and re-schedule
// them for every occurrence (messages, controller pipelines, CPU issue
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

// Calendar geometry: ringBuckets buckets of bucketWidth picoseconds, so
// the ring spans a horizon of about 262 ns — above every fixed latency
// of the machine model (a NoC crossing, a DRAM access).
const (
	bucketShift = 9
	bucketWidth = 1 << bucketShift // picoseconds per bucket
	ringBits    = 9
	ringBuckets = 1 << ringBits
	ringMask    = ringBuckets - 1
	horizon     = ringBuckets * bucketWidth
)

// minNodes is the node slabs' first capacity; append doubles it from
// there. Whole-machine runs queue from a few to about 150 events, so a
// start this small skips the tiniest growths without leaving a mostly
// unused slab on shallow runs.
const minNodes = 32

// node is one queued event; the Handler it fires is slab[i] for node
// nodes[i]. nodes[0] is a sentinel, never an event: a zero index ends a
// list, and an empty bucket's tail is 0, so that appending to it takes
// the same path as appending to any bucket — no event orders before the
// sentinel's (0, 0) key, and its next field is scratch.
type node struct {
	at   Time // never negative, so its bucket number is at >> bucketShift
	seq  uint64
	next uint32 // next node of the same bucket list or of the free list
}

// before reports whether a orders before b: earlier time first, FIFO on
// ties.
func (a *node) before(b *node) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// bucket is one ring slot: a list of nodes sorted by (at, seq), both
// indices 0 when it is empty.
type bucket struct{ head, tail uint32 }

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	pending int
	// base is the bucket number of the ring's first bucket, never after
	// the earliest pending event's: ring events lie in buckets
	// [base, base+ringBuckets), overflow events at or beyond the end.
	base  uint64
	free  uint32                   // head of the free-node list
	nodes []node                   // nodes[0] is the sentinel
	slab  []Handler                // len == len(nodes); live entries are the queued handlers
	over  []uint32                 // binary min-heap of overflow node indices
	occ   [ringBuckets / 64]uint64 // bit i: ring[i] is non-empty
	ring  [ringBuckets]bucket
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// push queues h under (at, seq). at must not precede the ring's base
// bucket, which Schedule and RestorePending guarantee by rejecting times
// before Now.
func (e *Engine) push(at Time, seq uint64, h Handler) {
	x := e.free
	if x != 0 {
		e.free = e.nodes[x].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes, e.slab = make([]node, 1, minNodes), make([]Handler, 1, minNodes)
		}
		x = uint32(len(e.nodes))
		e.nodes, e.slab = append(e.nodes, node{}), append(e.slab, nil)
	}
	e.nodes[x] = node{at: at, seq: seq}
	e.slab[x] = h
	e.pending++
	bn := uint64(at) >> bucketShift
	if bn-e.base >= ringBuckets {
		e.overPush(x)
		return
	}
	if i := bn & ringMask; !e.appendTail(i, x) {
		e.insertSorted(i, x)
	}
}

// appendTail links node x, whose next is 0, at the tail of ring bucket
// i when it does not order before the tail — every push in (at, seq)
// order — and reports whether it did. An empty bucket's tail is the
// sentinel, so x always appends there.
func (e *Engine) appendTail(i uint64, x uint32) bool {
	b := &e.ring[i]
	t := &e.nodes[b.tail]
	if e.nodes[x].before(t) {
		return false
	}
	t.next = x
	if b.head == 0 {
		b.head = x
	}
	b.tail = x
	e.occ[i>>6] |= 1 << (i & 63)
	return true
}

// insertSorted links node x, which orders before the tail of the
// non-empty ring bucket i, after the last node that does not order
// after it.
func (e *Engine) insertSorted(i uint64, x uint32) {
	b := &e.ring[i]
	nx := &e.nodes[x]
	if nx.before(&e.nodes[b.head]) {
		nx.next = b.head
		b.head = x
		return
	}
	p := b.head
	for !nx.before(&e.nodes[e.nodes[p].next]) {
		p = e.nodes[p].next
	}
	nx.next = e.nodes[p].next
	e.nodes[p].next = x
}

// pop removes the earliest event and returns its time and handler. It
// first moves base to the earliest event's bucket — usually found in
// base's own bitmap word — and pulls the overflow events the moved
// horizon now covers into the ring. The handler's slab entry is cleared
// and its node freed, so the engine keeps no reference to it.
func (e *Engine) pop() (Time, Handler) {
	from := e.base & ringMask
	if m := e.occ[from>>6] >> (from & 63); m != 0 {
		e.base += uint64(bits.TrailingZeros64(m))
	} else {
		e.base = e.nextBucket()
	}
	for len(e.over) > 0 && uint64(e.nodes[e.over[0]].at)>>bucketShift-e.base < ringBuckets {
		x := e.overPop()
		if i := uint64(e.nodes[x].at) >> bucketShift & ringMask; !e.appendTail(i, x) {
			e.insertSorted(i, x)
		}
	}
	i := e.base & ringMask
	b := &e.ring[i]
	x := b.head
	n := &e.nodes[x]
	b.head = n.next
	if b.head == 0 {
		b.tail = 0
		e.occ[i>>6] &^= 1 << (i & 63)
	}
	h := e.slab[x]
	e.slab[x] = nil
	n.next = e.free
	e.free = x
	e.pending--
	return n.at, h
}

// nextBucket returns the bucket number of the earliest pending event,
// which the queue must have: the first occupied ring bucket after base,
// or the overflow's minimum when the ring is empty — the ring's events
// all precede the overflow's.
func (e *Engine) nextBucket() uint64 {
	from := e.base & ringMask
	w := from >> 6
	m := e.occ[w] &^ (1<<(from&63) - 1)
	for k := 0; k <= len(e.occ); k++ {
		if m != 0 {
			i := w<<6 + uint64(bits.TrailingZeros64(m))
			return e.base + (i-from)&ringMask
		}
		w = (w + 1) % uint64(len(e.occ))
		m = e.occ[w]
	}
	return uint64(e.nodes[e.over[0]].at) >> bucketShift
}

// overPush adds node x to the overflow heap.
func (e *Engine) overPush(x uint32) {
	e.over = append(e.over, x)
	q := e.over
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.nodes[x].before(&e.nodes[q[p]]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// overPop removes and returns the overflow's earliest node.
func (e *Engine) overPop() uint32 {
	q := e.over
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	e.over = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.nodes[q[c+1]].before(&e.nodes[q[c]]) {
			c++
		}
		if !e.nodes[q[c]].before(&e.nodes[x]) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = x
	}
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
		for e.fired < stop && e.pending > 0 {
			at, h := e.pop()
			e.now = at
			h.Handle(at)
			e.fired++
		}
		if e.fired == end || e.pending == 0 {
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
