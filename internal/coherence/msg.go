// Package coherence defines the protocol vocabulary (message opcodes and
// payloads) and the cache-side coherence controller of the modelled
// Hammer-with-probe-filter protocol, including the single ALLARM addition:
// the PrbLocal message that lets a home directory query its own node's
// cache for the state of an untracked line (§II-C of the paper).
package coherence

import (
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/mem"
	"allarm/internal/noc"
	"allarm/internal/sim"
)

// Op is a coherence message opcode.
type Op uint8

const (
	// GetS requests a readable copy (load miss).
	GetS Op = iota
	// GetM requests an exclusive/writable copy (store miss or upgrade).
	GetM
	// PutM writes back a dirty (M or O) line being evicted.
	PutM
	// PutE notifies the home that a clean-exclusive line was evicted, so
	// the probe-filter entry can be freed. The paper's baseline includes
	// this optimisation ("an already optimized implementation").
	PutE
	// DataMsg carries a cache line to the requester with a granted state.
	DataMsg
	// PrbInv asks a cache to invalidate its copy (and forward data if it
	// is the owner and ForwardTo is set).
	PrbInv
	// PrbDown asks a cache to downgrade M→O / E→S and forward data.
	PrbDown
	// PrbLocal is ALLARM's new message: the home directory asks its own
	// node's cache for the current state of a line with no probe-filter
	// entry. Mode (GetS/GetM) selects downgrade vs invalidate semantics.
	PrbLocal
	// Ack acknowledges a probe without data (miss, or non-owner hit).
	Ack
	// AckData acknowledges a probe and carries dirty data back to the
	// home for DRAM writeback (used by back-invalidations).
	AckData
	// CmpAck is the requester's completion acknowledgement to the home
	// after its fill, closing the transaction (AMD Hammer's SrcDone).
	CmpAck
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case GetS:
		return "GetS"
	case GetM:
		return "GetM"
	case PutM:
		return "PutM"
	case PutE:
		return "PutE"
	case DataMsg:
		return "Data"
	case PrbInv:
		return "PrbInv"
	case PrbDown:
		return "PrbDown"
	case PrbLocal:
		return "PrbLocal"
	case Ack:
		return "Ack"
	case AckData:
		return "AckData"
	case CmpAck:
		return "CmpAck"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Class returns the wire class (control vs data) of the opcode.
func (o Op) Class() noc.Class {
	switch o {
	case PutM, DataMsg, AckData:
		return noc.Data
	default:
		return noc.Control
	}
}

// NoNode marks an unset ForwardTo destination.
const NoNode mem.NodeID = -1

// Msg is one coherence message. Fields beyond Op/Addr/Src/Dst are
// opcode-specific payload; unused fields are zero.
type Msg struct {
	Op   Op
	Addr mem.PAddr // line-aligned physical address
	Src  mem.NodeID
	Dst  mem.NodeID
	// ToDir is true when the destination is the node's directory
	// controller rather than its cache controller.
	ToDir bool

	// Mode carries the triggering request type on probes (GetS or GetM),
	// selecting downgrade vs invalidate semantics for PrbLocal.
	Mode Op
	// ForwardTo asks the probed owner to send data directly to this
	// requester (NoNode when data should return to the home instead).
	ForwardTo mem.NodeID
	// Grant is the cache state granted by a DataMsg (or the state the
	// probed owner should grant when forwarding).
	Grant cache.State
	// Untracked marks a DataMsg granted by an ALLARM home without a
	// probe-filter entry; the fill copies it into the line's mark
	// (bookkeeping only; see cache.Line.Untracked).
	Untracked bool
	// NoFill marks a DataMsg (or the PrbLocal that may forward one) whose
	// data must be consumed without installing the line: the home serves
	// the access but neither a probe-filter entry nor a cached copy comes
	// into existence. Allocation policies use it to defer tracking (e.g.
	// hysteresis) without creating undiscoverable remote copies; it is
	// only legal for read misses.
	NoFill bool
	// Hit reports whether a probed cache held the line (Ack/AckData).
	Hit bool
	// PrevState is the probed cache's state before the probe took effect.
	PrevState cache.State
	// Dirty reports whether AckData carries modified data.
	Dirty bool
	// Version is the line's data version, used to verify the data-value
	// invariant in tests (not a hardware field).
	Version uint64
	// TxnID matches probe acknowledgements to directory transactions.
	TxnID uint64

	// pool, when non-nil, is the free list that owns this message; freed
	// guards the recycle discipline against double release.
	pool  *MsgPool
	freed bool
	// rx takes the message when it fires as a scheduled event.
	rx Receiver
}

// Receiver takes a message when it fires from the event queue: the
// controller it is addressed to, once it has crossed the network, or the
// outbox of a cache controller that deferred its send.
type Receiver interface {
	HandleMsg(now sim.Time, m *Msg)
}

// To sets the receiver m goes to when it fires and returns m, ready to
// be scheduled.
func (m *Msg) To(rx Receiver) *Msg {
	m.rx = rx
	return m
}

// Handle implements sim.Handler: the message itself is the scheduled
// event, whether it is about to enter the network or to arrive.
func (m *Msg) Handle(now sim.Time) { m.rx.HandleMsg(now, m) }

// String renders a compact description for debugging and test failures.
func (m *Msg) String() string {
	dest := "cache"
	if m.ToDir {
		dest = "dir"
	}
	return fmt.Sprintf("%s[%#x] %d→%d/%s", m.Op, uint64(m.Addr), m.Src, m.Dst, dest)
}

// Port delivers coherence messages between controllers. The system layer
// implements it on top of the NoC, computing latencies and scheduling the
// message to reach the destination controller.
type Port interface {
	// Send enqueues m for delivery. Ownership of m transfers to the port
	// and then to the receiving controller, which calls Release once it
	// is done with the message (directly after processing, or — for
	// requests the directory parks in a transaction or waiter queue — at
	// transaction completion).
	Send(m *Msg)
}

// MsgPool is a LIFO free list of coherence messages. All controllers of
// one simulated machine allocate every message they send from the
// machine's single pool, and the receiving controller releases it when
// its flow no longer needs it, so steady-state simulation recycles a
// small working set instead of allocating per message.
//
// A pool is NOT safe for concurrent use — but it never needs to be: a
// machine runs on one event goroutine, and messages never cross
// machines. Parallel sweeps run one machine (and therefore one pool) per
// worker; the pool-recycle tests run such sweeps under -race to enforce
// this.
type MsgPool struct {
	free  []*Msg
	stats MsgPoolStats
}

// MsgPoolStats counts pool activity; News≪Gets means recycling works.
type MsgPoolStats struct {
	News uint64 // messages freshly allocated from the Go heap
	Gets uint64 // messages handed out (fresh + recycled)
	Puts uint64 // messages returned for reuse
}

// Stats returns a copy of the pool counters.
func (p *MsgPool) Stats() MsgPoolStats { return p.stats }

// Get returns a zeroed message owned by p. Pass it to Port.Send as usual;
// the receiver returns it with Release.
func (p *MsgPool) Get() *Msg {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*m = Msg{pool: p}
		return m
	}
	p.stats.News++
	return &Msg{pool: p}
}

// Release returns m to the pool it came from. Messages built directly
// with &Msg{} (tests, tools) have no pool and are left to the garbage
// collector. Releasing a pooled message twice panics: it means two flows
// believe they own the message, which would corrupt protocol state once
// the slot is recycled.
func (m *Msg) Release() {
	p := m.pool
	if p == nil {
		return
	}
	if m.freed {
		panic(fmt.Sprintf("coherence: message %v released twice", m))
	}
	m.freed = true
	p.stats.Puts++
	p.free = append(p.free, m)
}
