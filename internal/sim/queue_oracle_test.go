package sim

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	h   Handler
}

// oracleEvent is a distinct handler per scheduled event, so the pop
// sequence can be compared by identity.
type oracleEvent struct {
	fired *[]*oracleEvent
}

func (o *oracleEvent) Handle(Time) { *o.fired = append(*o.fired, o) }

// queueOracle drives an Engine and a reference queue — a slice kept
// sorted by (at, seq) — through the same operations and checks after
// each that both pop the same events and that ForEachPending visits
// exactly the reference, in order.
type queueOracle struct {
	tb     testing.TB
	e      *Engine
	ref    []refEvent
	refSeq uint64
	fired  []*oracleEvent
	// pick returns a choice in [0, n); it drives every decision.
	pick func(n int) int
	op   int
}

func newQueueOracle(tb testing.TB, pick func(n int) int) *queueOracle {
	return &queueOracle{tb: tb, e: &Engine{}, pick: pick}
}

// refInsert adds ev to the reference at its (at, seq) position.
func (o *queueOracle) refInsert(ev refEvent) {
	i, _ := slices.BinarySearchFunc(o.ref, ev, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	o.ref = slices.Insert(o.ref, i, ev)
}

// delta picks a scheduling distance: same instant, within a bucket or
// two, within the ring's horizon, or up to ten horizons out.
func (o *queueOracle) delta() Time {
	switch o.pick(4) {
	case 0:
		return 0
	case 1:
		return Time(o.pick(2 * bucketWidth))
	case 2:
		return Time(o.pick(horizon))
	default:
		return Time(o.pick(10*horizon + 1))
	}
}

func (o *queueOracle) schedule(at Time) {
	h := &oracleEvent{fired: &o.fired}
	o.e.Schedule(at, h)
	o.refSeq++
	o.refInsert(refEvent{at: at, seq: o.refSeq, h: h})
}

// popOne fires one event and checks it is the reference's earliest.
func (o *queueOracle) popOne() {
	o.fired = o.fired[:0]
	if n := o.e.Run(1); n != 1 {
		o.tb.Fatalf("op %d: Run(1) fired %d", o.op, n)
	}
	want := o.ref[0]
	o.ref = o.ref[1:]
	if len(o.fired) != 1 || o.fired[0] != want.h || o.e.Now() != want.at {
		o.tb.Fatalf("op %d: popped %v at %v, want %v at %v", o.op, o.fired, o.e.Now(), want.h, want.at)
	}
}

// restoreUnheld re-inserts an event under an issued seq that no pending
// event holds, as a restore does; it does nothing when the picked seq
// is held.
func (o *queueOracle) restoreUnheld() {
	seq := uint64(o.pick(int(o.refSeq) + 1))
	for _, ev := range o.ref {
		if ev.seq == seq {
			return
		}
	}
	at := o.e.Now() + o.delta()
	h := &oracleEvent{fired: &o.fired}
	if err := o.e.RestorePending(at, seq, h); err != nil {
		o.tb.Fatalf("op %d: %v", o.op, err)
	}
	o.refInsert(refEvent{at: at, seq: seq, h: h})
}

// snapshotRestore moves every pending event into a fresh engine, in
// canonical order or shuffled: RestorePending accepts any order.
func (o *queueOracle) snapshotRestore() {
	var evs []refEvent
	o.e.ForEachPending(func(at Time, seq uint64, h Handler) {
		evs = append(evs, refEvent{at, seq, h})
	})
	if o.pick(2) == 0 {
		for i := len(evs) - 1; i > 0; i-- {
			j := o.pick(i + 1)
			evs[i], evs[j] = evs[j], evs[i]
		}
	}
	e2 := &Engine{}
	if err := e2.RestoreClock(o.e.Now(), o.e.Seq(), o.e.Fired()); err != nil {
		o.tb.Fatal(err)
	}
	for _, ev := range evs {
		if err := e2.RestorePending(ev.at, ev.seq, ev.h); err != nil {
			o.tb.Fatalf("op %d: %v", o.op, err)
		}
	}
	o.e = e2
}

// step applies one operation picked from the mix, keeping the queue
// near target events, and checks the engine against the reference.
func (o *queueOracle) step(target int) {
	popShare := 15
	if len(o.ref) > target {
		popShare = 75
	}
	switch r := o.pick(100); {
	case len(o.ref) > 0 && r < popShare:
		for n := o.pick(4) + 1; n > 0 && len(o.ref) > 0; n-- {
			o.popOne()
		}
	case r < 80:
		o.schedule(o.e.Now() + o.delta())
	case r < 86:
		// A same-instant burst: the seq tie-break orders it.
		at := o.e.Now() + o.delta()
		for n := o.pick(16) + 2; n > 0; n-- {
			o.schedule(at)
		}
	case r < 92:
		o.restoreUnheld()
	case r < 95:
		// Drain, then jump while the ring is empty.
		for len(o.ref) > 0 {
			o.popOne()
		}
		for n := o.pick(3) + 1; n > 0; n-- {
			o.schedule(o.e.Now() + Time(o.pick(10*horizon+1)))
		}
	default:
		o.snapshotRestore()
	}
	o.check()
	o.op++
}

// check compares the engine's pending events, in ForEachPending order,
// with the reference, and its slabs with what is queued.
func (o *queueOracle) check() {
	i := 0
	o.e.ForEachPending(func(at Time, seq uint64, h Handler) {
		if i >= len(o.ref) {
			o.tb.Fatalf("op %d: more than %d events pending", o.op, len(o.ref))
		}
		if want := o.ref[i]; at != want.at || seq != want.seq || h != want.h {
			o.tb.Fatalf("op %d: pending[%d] = (%v, %d, %p), want (%v, %d, %p)", o.op, i, at, seq, h, want.at, want.seq, want.h)
		}
		i++
	})
	if i != len(o.ref) || o.e.Pending() != len(o.ref) {
		o.tb.Fatalf("op %d: visited %d, Pending %d, want %d", o.op, i, o.e.Pending(), len(o.ref))
	}
	if o.e.Seq() != o.refSeq {
		o.tb.Fatalf("op %d: Seq %d, want %d", o.op, o.e.Seq(), o.refSeq)
	}
	if n := liveSlabEntries(o.tb, o.e); n != len(o.ref) {
		o.tb.Fatalf("op %d: %d live slab entries for %d pending", o.op, n, len(o.ref))
	}
}

// TestQueueMatchesReference drives the engine and the sorted reference
// with random schedules, pops, bursts, RestorePending calls, drains with
// far jumps and snapshot/restore cycles, at depths up to about 200.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newQueueOracle(t, rng.Intn)
		target := 0
		for op := 0; op < 4000; op++ {
			if op%400 == 0 {
				target = rng.Intn(200)
			}
			o.step(target)
		}
	}
}

// FuzzEngineOrder runs the oracle's operations as chosen by the fuzzed
// bytes, four bytes per choice.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			var w [4]byte
			data = data[copy(w[:], data):]
			return int(binary.LittleEndian.Uint32(w[:]) % uint32(n))
		}
		o := newQueueOracle(t, pick)
		for len(data) > 0 {
			o.step(64)
		}
	})
}

// TestQueueOverflowComplexity is a complexity guard: 100,000 events at
// distinct times beyond the ring's horizon, scheduled in random order,
// must drain in order within a few seconds. A queue that sorts them
// by linear insertion takes minutes.
func TestQueueOverflowComplexity(t *testing.T) {
	const n = 100_000
	var e Engine
	var last Time
	ordered := true
	h := HandlerFunc(func(now Time) {
		ordered = ordered && now > last
		last = now
	})
	start := time.Now()
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		e.Schedule(horizon+Time(i)*Nanosecond, h)
	}
	if fired := e.Run(0); fired != n || !ordered {
		t.Fatalf("fired %d of %d events, in order %v", fired, n, ordered)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("%d overflow events took %v to schedule and drain", n, d)
	}
}
