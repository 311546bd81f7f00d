package sim

import (
	"math/rand"
	"testing"
)

// refItem and refHeap are the reference event heap: a straightforward
// 4-ary heap of (at, seq, handler) items with the engine's sift rules,
// the oracle for the engine queue's array layout and pop order.
type refItem struct {
	at  Time
	seq uint64
	h   Handler
}

func (a *refItem) before(b *refItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type refHeap struct {
	queue []refItem
}

func (e *refHeap) push(it refItem) {
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

func (e *refHeap) pop() refItem {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q[n] = refItem{}
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
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

// oracleEvent is a distinct handler per scheduled event, so the pop
// sequence can be compared by identity.
type oracleEvent struct {
	fired *[]*oracleEvent
}

func (o *oracleEvent) Handle(Time) { *o.fired = append(*o.fired, o) }

// TestHeapMatchesReference drives the engine and the reference heap with
// the same random schedules, pops, RestorePending calls and
// snapshot/restore cycles — few distinct times so the seq tie-break
// decides often, depths up to about 200 — and requires the same pop
// sequence and the same ForEachPending order after every operation.
func TestHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var ref refHeap
		var refSeq uint64
		var fired []*oracleEvent
		target := 0
		for op := 0; op < 4000; op++ {
			if op%400 == 0 {
				target = rng.Intn(200)
			}
			// Few distinct times: many events share an instant.
			at := e.Now() + Time(rng.Intn(4))
			popShare := 15
			if e.Pending() > target {
				popShare = 75
			}
			switch r := rng.Intn(100); {
			case e.Pending() > 0 && r < popShare:
				fired = fired[:0]
				if n := e.Run(1); n != 1 {
					t.Fatalf("seed %d op %d: Run(1) fired %d", seed, op, n)
				}
				want := ref.pop()
				if len(fired) != 1 || fired[0] != want.h || e.Now() != want.at {
					t.Fatalf("seed %d op %d: popped %v at %v, want %v at %v", seed, op, fired, e.Now(), want.h, want.at)
				}
			case r < 90:
				h := &oracleEvent{fired: &fired}
				e.Schedule(at, h)
				refSeq++
				ref.push(refItem{at: at, seq: refSeq, h: h})
			case r < 97:
				// An event with an already issued seq, as a restore
				// inserts them.
				seq := uint64(rng.Int63n(int64(refSeq) + 1))
				h := &oracleEvent{fired: &fired}
				if err := e.RestorePending(at, seq, h); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				ref.push(refItem{at: at, seq: seq, h: h})
			default:
				// Snapshot and restore into a fresh engine and heap.
				var e2 Engine
				var ref2 refHeap
				if err := e2.RestoreClock(e.Now(), e.Seq(), e.Fired()); err != nil {
					t.Fatal(err)
				}
				e.ForEachPending(func(at Time, seq uint64, h Handler) {
					if err := e2.RestorePending(at, seq, h); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
					ref2.push(refItem{at: at, seq: seq, h: h})
				})
				e, ref = e2, ref2
			}
			var got []refItem
			e.ForEachPending(func(at Time, seq uint64, h Handler) {
				got = append(got, refItem{at, seq, h})
			})
			if len(got) != len(ref.queue) {
				t.Fatalf("seed %d op %d: %d pending, want %d", seed, op, len(got), len(ref.queue))
			}
			for i := range got {
				if got[i] != ref.queue[i] {
					t.Fatalf("seed %d op %d: pending[%d] = %+v, want %+v", seed, op, i, got[i], ref.queue[i])
				}
			}
			if e.Seq() != refSeq {
				t.Fatalf("seed %d op %d: Seq %d, want %d", seed, op, e.Seq(), refSeq)
			}
			if n := liveSlabEntries(t, &e); n != e.Pending() {
				t.Fatalf("seed %d op %d: %d live slab entries for %d pending", seed, op, n, e.Pending())
			}
		}
	}
}
