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
// order is deterministic for a deterministic run, and because restored
// items keep their original (at, seq) keys, pop order — the only order
// that affects simulation results — is bit-identical even though the
// heap's internal layout may differ.

// ForEachPending visits every queued item in backing-array order.
// Closure events (fire != nil) are reported with a nil Handler; a
// snapshotting caller treats those as unserializable and refuses.
func (e *Engine) ForEachPending(fn func(at Time, seq uint64, h Handler)) {
	for i := range e.queue {
		it := &e.queue[i]
		if it.fire != nil {
			fn(it.at, it.seq, nil)
		} else {
			fn(it.at, it.seq, it.h)
		}
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
	e.now = now
	e.seq = seq
	e.fired = fired
	e.stopped = false
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
	e.push(item{at: at, seq: seq, h: h})
	return nil
}
