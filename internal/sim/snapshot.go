package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Snapshot accessors.
//
// A machine checkpoint must capture the engine exactly: the clock, the
// FIFO tie-break sequence, the fired-event count (event budgets span a
// resume) and every pending item. The engine itself knows nothing about
// serialization formats — the system layer walks the queue with
// ForEachPending, encodes each handler through its own registry, and
// rebuilds the queue on restore with RestoreClock + RestorePending.
// Items are visited in canonical (at, seq) order, the pop order, which
// depends only on what is pending and not on how the queue stores it;
// a resumed run therefore re-snapshots byte for byte. RestorePending
// accepts items in any order, so checkpoints written in another order —
// older builds wrote their heap's array order — still resume to the
// same pop sequence.

// ForEachPending visits every queued event in (at, seq) order.
func (e *Engine) ForEachPending(fn func(at Time, seq uint64, h Handler)) {
	for k := uint64(0); k < ringBuckets; k++ {
		for x := e.ring[(e.base+k)&ringMask].head; x != 0; x = e.nodes[x].next {
			fn(e.nodes[x].at, e.nodes[x].seq, e.slab[x])
		}
	}
	over := slices.Clone(e.over)
	slices.SortFunc(over, func(a, b uint32) int {
		na, nb := &e.nodes[a], &e.nodes[b]
		return cmp.Or(cmp.Compare(na.at, nb.at), cmp.Compare(na.seq, nb.seq))
	})
	for _, x := range over {
		fn(e.nodes[x].at, e.nodes[x].seq, e.slab[x])
	}
}

// Seq returns the last assigned tie-break sequence number.
func (e *Engine) Seq() uint64 { return e.seq }

// RestoreClock resets the engine to a checkpointed clock: current time,
// tie-break sequence and fired count. The queue must be empty — restore
// rebuilds it from scratch with RestorePending.
func (e *Engine) RestoreClock(now Time, seq, fired uint64) error {
	if e.pending != 0 {
		return fmt.Errorf("sim: RestoreClock with %d events pending", e.pending)
	}
	if now < 0 {
		return fmt.Errorf("sim: RestoreClock at negative time %v", now)
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	e.base = uint64(now) >> bucketShift
	return nil
}

// RestorePending re-inserts a checkpointed item with its original
// timestamp and tie-break sequence. The engine's own sequence counter
// is not advanced — call RestoreClock first with the checkpointed
// counter, which is >= every restored item's seq. Items may come in any
// order; in (at, seq) order each insert is O(1).
func (e *Engine) RestorePending(at Time, seq uint64, h Handler) error {
	if at < e.now {
		return fmt.Errorf("sim: restored event at %v before now %v", at, e.now)
	}
	if seq > e.seq {
		return fmt.Errorf("sim: restored event seq %d beyond clock seq %d", seq, e.seq)
	}
	if h == nil {
		return fmt.Errorf("sim: restored event with nil handler")
	}
	e.push(at, seq, h)
	return nil
}
