package core

import (
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Checkpoint support for the directory controller. A directory's live
// state is its probe filter, its per-line state (DRAM version shadow,
// the in-flight transaction of each busy line and the requests queued
// behind it), plus the occupancy clock and counters. The line state is
// encoded as three sections, dramver, busy and waiters, each listing
// only the lines that hold that kind of state, in ascending address
// order. Each in-flight transaction owns at most one request message and
// its waiter queue, and each pending evAck event owns its ack — so
// messages serialize inline with exactly one owner and restore without
// pools.
//
// Stale events need care: a dirEvent whose transaction restarted (new
// id) or finished must still fire and drop itself, because dropped
// events count toward the engine's fired total and the budget
// accounting must replay bit-identically. Decode therefore binds an
// event to the line's live transaction when one exists (an id mismatch
// then reproduces the drop), and to a dummy transaction with id 0
// otherwise — real ids start at 1, so the pointer/id check in Handle
// discards it exactly as the original would have been.

// DirEventOwner reports whether h is a directory event record and, if
// so, which node's directory owns it.
func DirEventOwner(h sim.Handler) (mem.NodeID, bool) {
	if ev, ok := h.(*dirEvent); ok {
		return ev.d.cfg.Node, true
	}
	return 0, false
}

// EncodeEvent writes the payload of a pending directory event owned by
// this controller (the owning node is written by the caller).
func (d *DirCtrl) EncodeEvent(e *checkpoint.Encoder, h sim.Handler) {
	ev := h.(*dirEvent)
	e.U8(ev.kind)
	if ev.kind == evAck {
		coherence.EncodeMsg(e, ev.m)
		return
	}
	// The transaction is identified by address and id; decode re-binds
	// it to the restored busy table.
	e.U64(uint64(ev.t.addr))
	e.U64(ev.id)
}

// DecodeEvent rebuilds a pending directory event for this controller.
// It must run after DecodeState so the busy table is populated.
func (d *DirCtrl) DecodeEvent(dec *checkpoint.Decoder) (sim.Handler, error) {
	kind := dec.U8()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	ev := d.events.Get()
	ev.d, ev.kind = d, kind
	if kind == evAck {
		m := coherence.DecodeMsg(dec)
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if m == nil {
			return nil, fmt.Errorf("core: pending ack event without a message")
		}
		if err := d.checkLine(m.Addr); err != nil {
			return nil, err
		}
		ev.m = m
		return ev, nil
	}
	if kind > evRetry {
		return nil, fmt.Errorf("core: unknown directory event kind %d", kind)
	}
	addr := mem.PAddr(dec.U64())
	id := dec.U64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if err := d.checkLine(addr); err != nil {
		return nil, err
	}
	if t := d.busy(addr); t != nil {
		// Bind to the live transaction. If the encoded id differs (the
		// txn restarted before the snapshot), Handle's id check drops
		// the event exactly as it would have in the original run.
		ev.t, ev.id = t, id
		return ev, nil
	}
	// The transaction finished before the snapshot: the event was stale
	// when captured. A placeholder with id 0 (real ids start at 1) can
	// never match a busy entry, so Handle drops it while still counting
	// it as fired.
	ph := d.txns.Get()
	*ph = txn{addr: addr}
	ev.t, ev.id = ph, id
	return ev, nil
}

// EncodeState writes the directory's full mutable state. The line state
// is walked in page order, which is ascending address order, so the
// byte stream is deterministic.
func (d *DirCtrl) EncodeState(e *checkpoint.Encoder) error {
	e.Section("dirctrl")

	// Allocation policy: name always (verified on decode), state only
	// when the policy is stateful.
	e.String(d.cfg.AllocName)
	if codec, ok := d.alloc.(StatefulDirectoryPolicy); ok {
		state, err := codec.SavePolicyState()
		if err != nil {
			return fmt.Errorf("core: policy %q state: %w", d.cfg.AllocName, err)
		}
		e.Bool(true)
		e.Bytes(state)
	} else {
		e.Bool(false)
	}

	e.I64(int64(d.nextFree))
	e.U64(d.txnSeq)
	checkpoint.EncodeStruct(e, &d.stats)

	d.encodePF(e)

	// DRAM version shadow: every line a writeback reached, zero
	// versions included.
	e.Section("dramver")
	n := 0
	d.eachWritten(func(mem.PAddr, uint64) { n++ })
	e.Len(n)
	d.eachWritten(func(addr mem.PAddr, version uint64) {
		e.U64(uint64(addr))
		e.U64(version)
	})

	// Busy transactions.
	e.Section("busy")
	e.Len(d.nbusy)
	d.eachBusy(func(t *txn) { encodeTxn(e, t) })

	// Waiter queues (FIFO order preserved within each queue).
	e.Section("waiters")
	n = 0
	d.eachBusy(func(t *txn) {
		if len(t.waiters) > 0 {
			n++
		}
	})
	e.Len(n)
	d.eachBusy(func(t *txn) {
		if len(t.waiters) == 0 {
			return
		}
		e.U64(uint64(t.addr))
		e.Len(len(t.waiters))
		for _, m := range t.waiters {
			coherence.EncodeMsg(e, m)
		}
	})
	return nil
}

// checkLine reports whether a decoded address names a line the page
// array covers: a line of a frame this home has handed out.
func (d *DirCtrl) checkLine(addr mem.PAddr) error {
	if end := uint64(len(d.pages)) * mem.PageBytes; mem.LineOf(addr) != addr || uint64(addr-d.base) >= end {
		return fmt.Errorf("core: checkpoint line %#x is not a line of directory %d's touched range [%#x, %#x)",
			uint64(addr), d.cfg.Node, uint64(d.base), uint64(d.base)+end)
	}
	return nil
}

// DecodeState overwrites the directory's mutable state. The controller
// must have been constructed with the same configuration (node, probe
// filter geometry, allocation policy) the checkpoint was taken with, and
// its page array reserved for the checkpoint's touched frames (Reserve
// with the restored mem.PhysMem.FramesTouched). Lines hold state only in
// frames first-touch has handed out, so an entry beyond the array is
// corrupt and decoding never grows the array.
func (d *DirCtrl) DecodeState(dec *checkpoint.Decoder) error {
	dec.Expect("dirctrl")

	name := dec.String()
	hasPolState := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if name != d.cfg.AllocName {
		return fmt.Errorf("core: checkpoint policy %q, directory has %q", name, d.cfg.AllocName)
	}
	if hasPolState {
		state := dec.Bytes()
		if err := dec.Err(); err != nil {
			return err
		}
		codec, ok := d.alloc.(StatefulDirectoryPolicy)
		if !ok {
			return fmt.Errorf("core: checkpoint carries state for policy %q, which has none", name)
		}
		if err := codec.LoadPolicyState(state); err != nil {
			return fmt.Errorf("core: policy %q state: %w", name, err)
		}
	}

	d.nextFree = sim.Time(dec.I64())
	d.txnSeq = dec.U64()
	checkpoint.DecodeStruct(dec, &d.stats)

	if err := d.decodePF(dec); err != nil {
		return err
	}

	// Dropping the pages' blocks resets every line; the unused tail of
	// the version chunk was never handed out, so it is still zero.
	clear(d.pages)
	d.nbusy = 0

	dec.Expect("dramver")
	n := dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		a := mem.PAddr(dec.U64())
		v := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if err := d.checkLine(a); err != nil {
			return err
		}
		if d.written(a) {
			return fmt.Errorf("core: duplicate DRAM version for line %#x", uint64(a))
		}
		d.setVersion(a, v)
	}

	dec.Expect("busy")
	n = dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := d.txns.Get()
		decodeTxn(dec, t)
		if err := dec.Err(); err != nil {
			return err
		}
		if err := d.checkLine(t.addr); err != nil {
			return err
		}
		if t.kind > txnEviction || (t.kind == txnRequest) != (t.req != nil) {
			return fmt.Errorf("core: malformed transaction for line %#x", uint64(t.addr))
		}
		if d.busy(t.addr) != nil {
			return fmt.Errorf("core: duplicate transaction for line %#x", uint64(t.addr))
		}
		d.setBusy(t.addr, t)
	}

	dec.Expect("waiters")
	n = dec.Len(maxTableEntries)
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		a := mem.PAddr(dec.U64())
		// Every message takes at least a byte, which bounds the queue
		// allocated below by the checkpoint's size.
		q := dec.Len(dec.Remaining())
		if err := dec.Err(); err != nil {
			return err
		}
		if err := d.checkLine(a); err != nil {
			return err
		}
		t := d.busy(a)
		switch {
		case t == nil:
			return fmt.Errorf("core: waiters for idle line %#x", uint64(a))
		case len(t.waiters) > 0:
			return fmt.Errorf("core: duplicate waiter queue for line %#x", uint64(a))
		case q == 0:
			return fmt.Errorf("core: empty waiter queue for line %#x", uint64(a))
		}
		msgs := make([]*coherence.Msg, 0, q)
		for j := 0; j < q; j++ {
			m := coherence.DecodeMsg(dec)
			if err := dec.Err(); err != nil {
				return err
			}
			if m == nil {
				return fmt.Errorf("core: nil message in waiter queue for %#x", uint64(a))
			}
			msgs = append(msgs, m)
		}
		t.waiters = msgs
	}
	return dec.Err()
}

// maxTableEntries bounds decoded section counts against corrupt input;
// far above anything a real machine produces (the sections are bounded
// by the probe filter and per-line serialization).
const maxTableEntries = 1 << 24

func encodeTxn(e *checkpoint.Encoder, t *txn) {
	e.U64(t.id)
	e.U8(uint8(t.kind))
	e.U64(uint64(t.addr))
	coherence.EncodeMsg(e, t.req)
	e.Bool(t.counted)
	e.I64(int64(t.pendingAcks))
	e.I64(int64(t.expectOwner))
	e.Bool(t.haveExpect)
	e.Bool(t.directed)
	e.Bool(t.needData)
	e.U8(uint8(t.grant))
	e.Bool(t.dramDone)
	e.I64(int64(t.dramDoneAt))
	e.Bool(t.dataSent)
	e.Bool(t.dataForwarded)
	e.Bool(t.cmpReceived)
	e.Bool(t.parked)
	e.Bool(t.entryTouched)
	e.I64(int64(t.putSrc))
	e.Bool(t.localProbe)
	e.Bool(t.localProbeDone)
	e.Bool(t.localProbeHit)
	e.I64(int64(t.localProbeAt))
	e.Bool(t.untracked)
	e.Bool(t.noFill)
	e.Bool(t.decided)
	e.U8(uint8(t.action))
	e.Bool(t.finalValid)
	e.U8(uint8(t.finalState))
	e.I64(int64(t.finalOwner))
}

func decodeTxn(d *checkpoint.Decoder, t *txn) {
	*t = txn{}
	t.id = d.U64()
	t.kind = txnKind(d.U8())
	t.addr = mem.PAddr(d.U64())
	t.req = coherence.DecodeMsg(d)
	t.counted = d.Bool()
	t.pendingAcks = int(d.I64())
	t.expectOwner = mem.NodeID(d.I64())
	t.haveExpect = d.Bool()
	t.directed = d.Bool()
	t.needData = d.Bool()
	t.grant = cache.State(d.U8())
	t.dramDone = d.Bool()
	t.dramDoneAt = sim.Time(d.I64())
	t.dataSent = d.Bool()
	t.dataForwarded = d.Bool()
	t.cmpReceived = d.Bool()
	t.parked = d.Bool()
	t.entryTouched = d.Bool()
	t.putSrc = mem.NodeID(d.I64())
	t.localProbe = d.Bool()
	t.localProbeDone = d.Bool()
	t.localProbeHit = d.Bool()
	t.localProbeAt = sim.Time(d.I64())
	t.untracked = d.Bool()
	t.noFill = d.Bool()
	t.decided = d.Bool()
	t.action = MissAction(d.U8())
	t.finalValid = d.Bool()
	t.finalState = EntryState(d.U8())
	t.finalOwner = mem.NodeID(d.I64())
}

// encodePF writes the probe filter: the tick, the statistics and every
// way in array order (valid bits and LRU ages included, so replacement
// replays identically), each as the record the format has always
// carried — address, state, owner, valid, LRU — and an empty way as all
// zeros.
func (d *DirCtrl) encodePF(e *checkpoint.Encoder) {
	pf := d.pf
	e.Section("pf")
	e.U64(pf.tick)
	checkpoint.EncodeStruct(e, &pf.stats)
	e.Len(len(pf.tags))
	for i, t := range pf.tags {
		e.U64(t &^ pfMeta)
		e.U8(uint8(t & pfState))
		e.I64(int64(pf.owners[i]))
		e.Bool(t&pfValid != 0)
		e.U64(pf.lrus[i])
	}
}

// decodePF overwrites the probe filter from a checkpoint. A way the
// filter could not have produced is an error: an empty way with any
// non-zero field, a valid byte other than 0 or 1, an unaligned address
// or one outside this directory's touched range, a state out of range,
// an owner that is not a node ID, a line outside its set, or one line in
// two ways of a set.
func (d *DirCtrl) decodePF(dec *checkpoint.Decoder) error {
	pf := d.pf
	dec.Expect("pf")
	pf.tick = dec.U64()
	checkpoint.DecodeStruct(dec, &pf.stats)
	n := dec.Len(len(pf.tags))
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(pf.tags) {
		return fmt.Errorf("core: checkpoint has %d probe-filter entries, filter has %d", n, len(pf.tags))
	}
	for i := range pf.tags {
		addr, st, owner := dec.U64(), dec.U8(), dec.I64()
		valid, lru := dec.U8(), dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if err := d.restoreEntry(i, addr, st, owner, valid, lru); err != nil {
			return fmt.Errorf("core: probe-filter way %d: %w", i, err)
		}
	}
	return nil
}

// restoreEntry validates one decoded probe-filter way and stores it at
// index i.
func (d *DirCtrl) restoreEntry(i int, addr uint64, st uint8, owner int64, valid uint8, lru uint64) error {
	pf := d.pf
	switch {
	case valid > 1:
		return fmt.Errorf("valid byte %d is not a boolean", valid)
	case valid == 0:
		if addr != 0 || st != 0 || owner != 0 || lru != 0 {
			return fmt.Errorf("empty way holds data")
		}
		pf.tags[i], pf.lrus[i], pf.owners[i] = 0, 0, 0
		return nil
	case st > uint8(EntryS):
		return fmt.Errorf("state %d out of range", st)
	case owner != int64(mem.NodeID(owner)):
		return fmt.Errorf("owner %d is not a node", owner)
	case pf.setIndex(mem.PAddr(addr)) != i/pf.ways:
		return fmt.Errorf("line %#x belongs to set %d", addr, pf.setIndex(mem.PAddr(addr)))
	}
	if err := d.checkLine(mem.PAddr(addr)); err != nil {
		return err
	}
	key := addr | pfValid
	for _, t := range pf.tags[i-i%pf.ways : i] {
		if t&^pfState == key {
			return fmt.Errorf("line %#x held twice in its set", addr)
		}
	}
	pf.tags[i], pf.lrus[i], pf.owners[i] = key|uint64(st), lru, mem.NodeID(owner)
	return nil
}
