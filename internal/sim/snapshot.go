package sim

import "fmt"

// Snapshot accessors.
//
// A machine checkpoint must capture the engine exactly: the clock, the
// FIFO tie-break sequence, the fired-event count (event budgets span a
// resume) and every pending item. The engine itself knows nothing about
// serialization formats — the system layer walks the queue with
// ForEachPending, encodes each handler through its own registry, and
// rebuilds the queue on restore with RestoreClock + RestorePending.
// Items are visited and re-inserted in raw backing-array order: that
// order is deterministic for a deterministic run, and re-inserting it
// into an empty queue rebuilds the same layout (each item's parent is
// already in place and orders before it), so restored items keep both
// their pop order and their array positions, and a resumed run
// re-snapshots byte for byte.

// ForEachPending visits every queued event in backing-array order.
func (e *Engine) ForEachPending(fn func(at Time, seq uint64, h Handler)) {
	for _, k := range e.queue {
		fn(k.at, k.seq, e.slab[k.slot])
	}
}

// Seq returns the last assigned tie-break sequence number.
func (e *Engine) Seq() uint64 { return e.seq }

// RestoreClock resets the engine to a checkpointed clock: current time,
// tie-break sequence and fired count. The queue must be empty — restore
// rebuilds it from scratch with RestorePending.
func (e *Engine) RestoreClock(now Time, seq, fired uint64) error {
	if len(e.queue) != 0 {
		return fmt.Errorf("sim: RestoreClock with %d events pending", len(e.queue))
	}
	if now < 0 {
		return fmt.Errorf("sim: RestoreClock at negative time %v", now)
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	return nil
}

// RestorePending re-inserts a checkpointed item with its original
// timestamp and tie-break sequence. The engine's own sequence counter
// is not advanced — call RestoreClock first with the checkpointed
// counter, which is >= every restored item's seq.
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
