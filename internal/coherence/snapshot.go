package coherence

import (
	"allarm/internal/cache"
	"allarm/internal/checkpoint"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Checkpoint support. Every live coherence message has exactly one
// holder (the event queue, as a message crossing the network or waiting
// in a deferred send; a parked directory transaction; a waiter queue; a
// deferred ack), so messages are serialized inline with their holder.
// Restored messages are built without a pool — Release then no-ops and
// the garbage collector takes them once their flow completes — which is
// safe because pool membership never affects protocol behaviour, only
// allocation counts, and pool statistics do not feed results. The
// machine's message pool and free lists restart empty.

// EncodeMsg writes one message (or its absence, when m is nil).
func EncodeMsg(e *checkpoint.Encoder, m *Msg) {
	if m == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.U8(uint8(m.Op))
	e.U64(uint64(m.Addr))
	e.I64(int64(m.Src))
	e.I64(int64(m.Dst))
	e.Bool(m.ToDir)
	e.U8(uint8(m.Mode))
	e.I64(int64(m.ForwardTo))
	e.U8(uint8(m.Grant))
	e.Bool(m.Untracked)
	e.Bool(m.NoFill)
	e.Bool(m.Hit)
	e.U8(uint8(m.PrevState))
	e.Bool(m.Dirty)
	e.U64(m.Version)
	e.U64(m.TxnID)
}

// DecodeMsg reads one message written by EncodeMsg; nil when the writer
// recorded an absent message. Restored messages have no pool.
func DecodeMsg(d *checkpoint.Decoder) *Msg {
	if !d.Bool() {
		return nil
	}
	m := &Msg{}
	m.Op = Op(d.U8())
	m.Addr = mem.PAddr(d.U64())
	m.Src = mem.NodeID(d.I64())
	m.Dst = mem.NodeID(d.I64())
	m.ToDir = d.Bool()
	m.Mode = Op(d.U8())
	m.ForwardTo = mem.NodeID(d.I64())
	m.Grant = cache.State(d.U8())
	m.Untracked = d.Bool()
	m.NoFill = d.Bool()
	m.Hit = d.Bool()
	m.PrevState = cache.State(d.U8())
	m.Dirty = d.Bool()
	m.Version = d.U64()
	m.TxnID = d.U64()
	return m
}

// DeferredSender reports whether h is a message waiting in a cache
// controller's deferred send rather than travelling the network and, if
// so, which node's controller deferred it.
func DeferredSender(h sim.Handler) (mem.NodeID, bool) {
	if m, ok := h.(*Msg); ok {
		if o, ok := m.rx.(outbox); ok {
			return o.c.node, true
		}
	}
	return 0, false
}

// Outbox returns the Receiver that makes a restored message a deferred
// send of this controller.
func (c *CacheCtrl) Outbox() Receiver { return outbox{c} }

// EncodeState writes the controller's mutable state: array occupancy,
// counters, the private hierarchy, and the outstanding miss (whose
// completion handler the system-layer codec resolves).
func (c *CacheCtrl) EncodeState(e *checkpoint.Encoder, encodeHandler func(*checkpoint.Encoder, sim.Handler) error) error {
	e.Section("cachectrl")
	e.I64(int64(c.nextFree))
	checkpoint.EncodeStruct(e, &c.stats)
	c.hier.EncodeState(e)
	e.Bool(c.hasPending)
	if c.hasPending {
		e.U64(uint64(c.pending.addr))
		e.Bool(c.pending.write)
		e.I64(int64(c.pending.issued))
		if err := encodeHandler(e, c.pending.done); err != nil {
			return err
		}
	}
	return nil
}

// DecodeState overwrites the controller's mutable state.
func (c *CacheCtrl) DecodeState(d *checkpoint.Decoder, decodeHandler func(*checkpoint.Decoder) (sim.Handler, error)) error {
	d.Expect("cachectrl")
	c.nextFree = sim.Time(d.I64())
	checkpoint.DecodeStruct(d, &c.stats)
	if err := c.hier.DecodeState(d); err != nil {
		return err
	}
	c.hasPending = d.Bool()
	c.pending = mshr{}
	if c.hasPending {
		c.pending.addr = mem.PAddr(d.U64())
		c.pending.write = d.Bool()
		c.pending.issued = sim.Time(d.I64())
		h, err := decodeHandler(d)
		if err != nil {
			return err
		}
		c.pending.done = h
	}
	return d.Err()
}
