package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// selfScheduler keeps one event in the queue forever, modelling a
// simulation that never runs dry on its own.
type selfScheduler struct {
	e     *Engine
	fired int
}

func (s *selfScheduler) Handle(now Time) {
	s.fired++
	s.e.Schedule(now+1, s)
}

// nop is a handler that does nothing.
var nop = HandlerFunc(func(Time) {})

// TestRunCtxBackgroundMatchesRun: a non-cancellable context takes the
// plain Run path — same events, same Now, nil error.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	var a, b Engine
	for i := 0; i < 100; i++ {
		at := Time(i)
		a.Schedule(at, nop)
		b.Schedule(at, nop)
	}
	na := a.Run(0)
	nb, err := b.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || a.Now() != b.Now() {
		t.Fatalf("RunCtx(Background) fired %d events to t=%v, Run fired %d to t=%v", nb, b.Now(), na, a.Now())
	}
}

// TestRunCtxCancelWithinBudget: cancelling mid-run stops the loop after
// at most CancelCheckBudget further events, with the error reporting
// the cause and the queue keeping its unfired events.
func TestRunCtxCancelWithinBudget(t *testing.T) {
	var e Engine
	s := &selfScheduler{e: &e}
	e.Schedule(1, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first budget boundary
	fired, err := e.RunCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired > CancelCheckBudget {
		t.Fatalf("fired %d events after cancellation, budget is %d", fired, CancelCheckBudget)
	}
	if e.Pending() == 0 {
		t.Fatal("cancellation drained the queue; unfired events must stay queued")
	}
}

// TestRunCtxCancelFromEvent: a cancellation raised by a running event
// (the realistic drain case: another goroutine cancels) is observed at
// the next budget boundary.
func TestRunCtxCancelFromEvent(t *testing.T) {
	var e Engine
	s := &selfScheduler{e: &e}
	e.Schedule(1, s)
	ctx, cancel := context.WithCancel(context.Background())
	stop := CancelCheckBudget / 2
	e.Schedule(Time(stop), HandlerFunc(func(Time) { cancel() }))
	fired, err := e.RunCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bound := uint64(stop) + CancelCheckBudget + 1; fired > bound {
		t.Fatalf("fired %d events, want <= %d (cancel point + one budget)", fired, bound)
	}
	if s.fired == 0 {
		t.Fatal("no events fired before cancellation")
	}
}

// TestRunCtxResumeAfterCancel: the engine stays consistent after a
// cancelled run — re-running with a fresh context finishes the queue.
func TestRunCtxResumeAfterCancel(t *testing.T) {
	var e Engine
	const total = 10 * CancelCheckBudget
	var fired int
	for i := 1; i <= total; i++ {
		e.Schedule(Time(i), HandlerFunc(func(Time) { fired++ }))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if fired != total || e.Pending() != 0 {
		t.Fatalf("fired %d of %d events, %d pending", fired, total, e.Pending())
	}
	if e.Now() != total {
		t.Fatalf("Now = %v, want %d", e.Now(), total)
	}
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30, HandlerFunc(func(Time) { order = append(order, 3) }))
	e.Schedule(10, HandlerFunc(func(Time) { order = append(order, 1) }))
	e.Schedule(20, HandlerFunc(func(Time) { order = append(order, 2) }))
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(100, nop)
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	e.Schedule(50, nop)
}

// TestAfterIsRelative: ScheduleAfter counts its delay from Now.
func TestAfterIsRelative(t *testing.T) {
	var e Engine
	var at Time
	e.Schedule(100, HandlerFunc(func(now Time) {
		e.ScheduleAfter(50, HandlerFunc(func(now Time) { at = now }))
	}))
	e.Run(0)
	if at != 150 {
		t.Fatalf("ScheduleAfter fired at %v, want 150", at)
	}
}

func TestRunLimit(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), nop)
	}
	if fired := e.Run(4); fired != 4 {
		t.Fatalf("fired %d, want 4", fired)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending %d, want 6", e.Pending())
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var e Engine
	depth := 0
	var recurse HandlerFunc
	recurse = func(now Time) {
		if depth < 100 {
			depth++
			e.ScheduleAfter(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	if s := (1500 * Picosecond).String(); s != "1.5ns" {
		t.Fatalf("String = %q", s)
	}
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run(0)
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestHandlerScheduling(t *testing.T) {
	var e Engine
	var got []Time
	h := HandlerFunc(func(now Time) { got = append(got, now) })
	e.Schedule(10, h)
	e.Schedule(30, h)
	e.Schedule(20, h)
	e.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("fire times = %v", got)
	}
}

// orderRecord is a concrete handler record, the form model components
// schedule, as opposed to a HandlerFunc closure.
type orderRecord struct {
	id    int
	order *[]int
}

func (r *orderRecord) Handle(Time) { *r.order = append(*r.order, r.id) }

func TestHandlerFIFOTieBreakWithEvents(t *testing.T) {
	// Handler records and HandlerFunc closures share one sequence
	// counter, so same-time events fire in scheduling order regardless
	// of form.
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			e.Schedule(100, &orderRecord{id: i, order: &order})
		} else {
			e.Schedule(100, HandlerFunc(func(Time) { order = append(order, i) }))
		}
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNilHandlerPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil handler")
		}
	}()
	e.Schedule(1, nil)
}

func TestScheduleHandlerInPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(100, nop)
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past handler")
		}
	}()
	e.Schedule(50, nop)
}

func TestRunLimitResume(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(10*(i+1)), HandlerFunc(func(Time) { order = append(order, i) }))
	}
	if fired := e.Run(3); fired != 3 {
		t.Fatalf("first Run fired %d, want 3", fired)
	}
	if e.Now() != 30 {
		t.Fatalf("Now after limited run = %v, want 30", e.Now())
	}
	if fired := e.Run(0); fired != 7 {
		t.Fatalf("resumed Run fired %d, want 7", fired)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("resume reordered events: %v", order)
		}
	}
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10 across both calls", e.Fired())
	}
}

// TestRestoreClockRejectsNegativeTime: the queue orders times as
// unsigned numbers, so a checkpoint may not move the clock before zero.
func TestRestoreClockRejectsNegativeTime(t *testing.T) {
	var e Engine
	if err := e.RestoreClock(-1, 0, 0); err == nil {
		t.Fatal("RestoreClock accepted a negative time")
	}
}

// TestRestoreEqualKeys: events restored under one (at, seq) — which
// only a corrupt checkpoint holds, and the system layer rejects — must
// still queue and all pop, in the ring and in the overflow, rather than
// wedge the queue.
func TestRestoreEqualKeys(t *testing.T) {
	for _, at := range []Time{5, 5 + 2*horizon} {
		var e Engine
		if err := e.RestoreClock(0, 9, 0); err != nil {
			t.Fatal(err)
		}
		var order []int
		for id := 0; id < 3; id++ {
			if err := e.RestorePending(at, 7, &orderRecord{id: id, order: &order}); err != nil {
				t.Fatal(err)
			}
		}
		if n := e.Run(0); n != 3 || len(order) != 3 {
			t.Fatalf("at %v: fired %d events in order %v", at, n, order)
		}
	}
}

// liveSlabEntries checks the queue's structure — every ring bucket a
// list sorted by (at, seq) inside the horizon, matching its occupancy
// bit; the overflow beyond it — and that exactly the slab entries of
// queued nodes hold a handler, every fired handler's entry cleared. It
// returns how many do.
func liveSlabEntries(tb testing.TB, e *Engine) int {
	tb.Helper()
	if len(e.slab) != len(e.nodes) {
		tb.Fatalf("slab has %d entries for %d nodes", len(e.slab), len(e.nodes))
	}
	live := make(map[uint32]bool)
	mark := func(x uint32) {
		if x == 0 || int(x) >= len(e.nodes) || live[x] {
			tb.Fatalf("node %d queued twice or out of range", x)
		}
		live[x] = true
	}
	for i := range e.ring {
		b := e.ring[i]
		if occ := e.occ[i>>6]>>(i&63)&1 == 1; occ != (b.head != 0) || b.head == 0 && b.tail != 0 {
			tb.Fatalf("bucket %d: occupancy bit %v, head %d, tail %d", i, occ, b.head, b.tail)
		}
		var prev *node
		for x := b.head; x != 0; x = e.nodes[x].next {
			mark(x)
			n := &e.nodes[x]
			if bn := uint64(n.at) >> bucketShift; bn-e.base >= ringBuckets || bn&ringMask != uint64(i) {
				tb.Fatalf("node at %v in bucket %d, ring base %d", n.at, i, e.base)
			}
			if prev != nil && !prev.before(n) {
				tb.Fatalf("bucket %d out of order", i)
			}
			if n.next == 0 && b.tail != x {
				tb.Fatalf("bucket %d: tail %d, last node %d", i, b.tail, x)
			}
			prev = n
		}
	}
	for _, x := range e.over {
		mark(x)
		if uint64(e.nodes[x].at)>>bucketShift-e.base < ringBuckets {
			tb.Fatalf("overflow node at %v inside the horizon of base %d", e.nodes[x].at, e.base)
		}
	}
	n := 0
	for i, h := range e.slab {
		if h != nil {
			n++
		}
		if (h != nil) != live[uint32(i)] {
			tb.Fatalf("slab entry %d: handler set %v, queued %v", i, h != nil, live[uint32(i)])
		}
	}
	return n
}

// TestQueueReleasesReferencesAfterRun is the regression test for the old
// eventHeap.Pop, which left each popped item's closure reachable in the
// backing array: after a run drains, no slab entry may still reference
// a handler.
func TestQueueReleasesReferencesAfterRun(t *testing.T) {
	var e Engine
	for i := 0; i < 100; i++ {
		payload := make([]byte, 1<<10)
		e.Schedule(Time(i), HandlerFunc(func(Time) { _ = payload }))
		if i%3 == 0 {
			e.Schedule(Time(i), nop)
		}
	}
	e.Run(0)
	if n := liveSlabEntries(t, &e); n != 0 {
		t.Fatalf("%d slab entries still reference a handler after the run", n)
	}
}

// TestRunLimitReleasesPoppedSlots checks the same property mid-run:
// handlers fired by a limited Run must not linger beside the live queue.
func TestRunLimitReleasesPoppedSlots(t *testing.T) {
	var e Engine
	for i := 0; i < 50; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run(20)
	if n := liveSlabEntries(t, &e); n != 30 {
		t.Fatalf("%d slab entries hold a handler, want the 30 still queued", n)
	}
}

// churnHandler reschedules itself until its budget runs out, modelling a
// steady-state component (CPU issue loop, controller pipeline).
type churnHandler struct {
	e         *Engine
	remaining int
}

func (c *churnHandler) Handle(now Time) {
	if c.remaining > 0 {
		c.remaining--
		c.e.Schedule(now+1, c)
	}
}

// benchmarkChurn measures the scheduler's steady-state cost: width
// preallocated handlers churning through a queue that holds about width
// events, run through RunCtx with ctx. It runs allocation-free once the
// queue has grown.
func benchmarkChurn(b *testing.B, ctx context.Context, width int) {
	var e Engine
	handlers := make([]churnHandler, width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range handlers {
			handlers[j] = churnHandler{e: &e, remaining: 64}
			e.Schedule(e.Now()+Time(j), &handlers[j])
		}
		if _, err := e.RunCtx(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineChurn runs a 1024-deep queue, far deeper than any
// whole-machine run. Its +1 ps deltas put every event in one or two
// buckets, the calendar queue's worst case: pushes walk long lists.
func BenchmarkEngineChurn(b *testing.B) { benchmarkChurn(b, context.Background(), 1024) }

// BenchmarkEngineChurnDepth48 matches the average queue depth of a
// 16-node machine under a hot home directory.
func BenchmarkEngineChurnDepth48(b *testing.B) { benchmarkChurn(b, context.Background(), 48) }

// BenchmarkEngineChurnDepth3 matches the average queue depth of the
// two-process multiprogrammed runs.
func BenchmarkEngineChurnDepth3(b *testing.B) { benchmarkChurn(b, context.Background(), 3) }

// BenchmarkEngineChurnCancellable is BenchmarkEngineChurn with a
// genuinely cancellable context: the budgeted cancellation poll must add
// no per-event allocations (and no measurable per-event time) over the
// plain Run loop.
func BenchmarkEngineChurnCancellable(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchmarkChurn(b, ctx, 1024)
}

// mixDeltas is a fixed pseudo-random sequence of scheduling deltas in
// the proportions a whole-machine run measures: about 45% at +1 ns (a
// cache or controller stage), the rest spread over 2–144 ns (NoC
// crossings, contention, DRAM).
var mixDeltas = func() []Time {
	rng := rand.New(rand.NewSource(1))
	d := make([]Time, 4096)
	for i := range d {
		if rng.Intn(100) < 45 {
			d[i] = Nanosecond
		} else {
			d[i] = 2*Nanosecond + Time(rng.Int63n(int64(142*Nanosecond)))
		}
	}
	return d
}()

// mixHandler reschedules itself by the next of mixDeltas until its
// budget runs out.
type mixHandler struct {
	e         *Engine
	next      *int
	remaining int
}

func (m *mixHandler) Handle(now Time) {
	if m.remaining > 0 {
		m.remaining--
		*m.next = (*m.next + 1) % len(mixDeltas)
		m.e.Schedule(now+mixDeltas[*m.next], m)
	}
}

// benchmarkMix is benchmarkChurn with the measured delta mix, so events
// spread over the queue's time range as in a whole-machine run.
func benchmarkMix(b *testing.B, width int) {
	var e Engine
	next := 0
	handlers := make([]mixHandler, width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range handlers {
			handlers[j] = mixHandler{e: &e, next: &next, remaining: 64}
			e.Schedule(e.Now()+Time(j)*Nanosecond, &handlers[j])
		}
		e.Run(0)
	}
}

// BenchmarkEngineMixDepth48 is BenchmarkEngineChurnDepth48 with the
// measured delta mix.
func BenchmarkEngineMixDepth48(b *testing.B) { benchmarkMix(b, 48) }

// BenchmarkEngineMixDepth3 is BenchmarkEngineChurnDepth3 with the
// measured delta mix.
func BenchmarkEngineMixDepth3(b *testing.B) { benchmarkMix(b, 3) }
