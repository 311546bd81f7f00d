package core

import (
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/coherence"
	"allarm/internal/dram"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// DirStats counts directory-controller events. Together with PFStats and
// the NoC/DRAM statistics it drives every figure in the paper.
type DirStats struct {
	// LocalRequests and RemoteRequests classify demand requests by the
	// requester's affinity domain (Figure 2).
	LocalRequests  uint64
	RemoteRequests uint64

	// EvictionMsgs counts NoC messages (probes, acks, data) caused by
	// probe-filter back-invalidations (Figure 3d's numerator).
	EvictionMsgs uint64
	// EvictionWritebacks counts back-invalidations that returned dirty
	// data for a DRAM write.
	EvictionWritebacks uint64
	// EvictionProbeHits counts back-invalidation probes that found a live
	// cached copy (the paper's "needed line removed from underlying
	// cores"); EvictionProbes is the denominator.
	EvictionProbeHits uint64
	EvictionProbes    uint64

	// LocalProbes counts ALLARM PrbLocal queries (one per remote request
	// that missed the probe filter).
	LocalProbes uint64
	// LocalProbeHits counts PrbLocal queries that found the line cached
	// untracked at the home's core.
	LocalProbeHits uint64
	// LocalProbesHidden counts PrbLocal misses whose response arrived no
	// later than the DRAM data — the probe was off the critical path
	// (Figure 3g's numerator; LocalProbes is the denominator).
	LocalProbesHidden uint64

	// UntrackedGrants counts local requests served with no probe-filter
	// allocation (ALLARM's thread-local fast path).
	UntrackedGrants uint64
	// UncachedGrants counts requests served with no allocation and no
	// fill (deferred-allocation policies' GrantUncached action).
	UncachedGrants uint64

	// Broadcasts counts invalidation broadcasts (O/S entries: Hammer does
	// not know the sharers); DirectedProbes counts single-owner probes.
	Broadcasts     uint64
	DirectedProbes uint64

	// ParkedTxns counts transactions that waited for an in-flight
	// writeback (probe raced a PutM/PutE); Restarts counts re-dispatches.
	ParkedTxns uint64
	Restarts   uint64

	// StaleOwnerRequests counts defensive recoveries from a request by a
	// node the entry already names as owner (should not occur with FIFO
	// routes; tracked to prove it).
	StaleOwnerRequests uint64
	// StaleVersionWrites counts DRAM writebacks carrying an older version
	// than DRAM already has (a protocol-correctness alarm; must be zero).
	StaleVersionWrites uint64
	// AllocRetries counts allocation attempts deferred because every way
	// of a set held a busy line.
	AllocRetries uint64
}

type txnKind uint8

const (
	txnRequest txnKind = iota
	txnEviction
)

// txn is one in-flight directory transaction. The directory serializes
// transactions per line: while a txn is busy on a line, later requests for
// that line queue in its waiters list, which finish hands on to the next
// transaction.
type txn struct {
	id      uint64
	kind    txnKind
	addr    mem.PAddr
	req     *coherence.Msg   // request transactions only
	waiters []*coherence.Msg // requests queued behind this one, FIFO

	counted bool // local/remote classification done (restart-safe)

	pendingAcks   int
	expectOwner   mem.NodeID
	haveExpect    bool
	directed      bool // single-owner probe flow (can park on a raced put)
	needData      bool // the home must send DataMsg itself
	grant         cache.State
	dramDone      bool
	dramDoneAt    sim.Time
	dataSent      bool
	dataForwarded bool // probed owner forwarded data to the requester
	cmpReceived   bool

	parked       bool // waiting for an in-flight PutM/PutE
	entryTouched bool // a Put arrived while this txn was active
	putSrc       mem.NodeID

	localProbe     bool // ALLARM PrbLocal outstanding or resolved
	localProbeDone bool
	localProbeHit  bool
	localProbeAt   sim.Time
	untracked      bool // grant without probe-filter allocation
	noFill         bool // grant without installing the line (GrantUncached)

	decided bool       // the alloc policy has been consulted for this txn
	action  MissAction // its decision (valid when decided)

	finalValid bool // entry state to install at completion
	finalState EntryState
	finalOwner mem.NodeID
}

// Config carries the directory controller's construction parameters.
type Config struct {
	Node mem.NodeID
	// Size is the memory each node homes, in bytes: this node's range is
	// [Node*Size, (Node+1)*Size), and every line the directory sees lies
	// in it.
	Size uint64
	// Nodes is the machine's node count (broadcast fan-out).
	Nodes int
	// Alloc is the directory's allocation policy (required) and
	// AllocName the registry name it was built under, which checkpoints
	// record and verify on restore.
	Alloc     DirectoryPolicy
	AllocName string
	// LookupLatency is the probe-filter access latency (Table I: 1 ns).
	LookupLatency sim.Time
	// Versions, Msgs and Events supply DRAM version blocks, messages and
	// event records (all required); a machine's controllers share each.
	Versions *VersionBlocks
	Msgs     *coherence.MsgPool
	Events   *DirEvents
	// RetryDelay spaces re-attempts when an allocation finds every way of
	// a set busy (rare; bounded by transaction completion).
	RetryDelay sim.Time
}

// DirCtrl is one node's home directory controller: it owns the node's
// probe filter and memory controller and runs the coherence flows for
// every line homed at the node.
type DirCtrl struct {
	cfg   Config
	alloc DirectoryPolicy
	pf    *ProbeFilter
	eng   *sim.Engine
	port  coherence.Port
	dram  *dram.Controller

	// base is the first address of the home's range.
	base mem.PAddr
	// pages holds each page's busy and version blocks (linestate.go),
	// spare the idle busy blocks kept for reuse; nbusy counts the lines
	// with a transaction in flight.
	pages  []pageState
	spare  []*busyBlock
	nbusy  int
	txnSeq uint64

	// txns recycles transaction objects. It stays per directory: a stale
	// dirEvent checks its finished transaction with d.busy(t.addr) and
	// t.id, so a record recycled to another directory would carry a line
	// outside this home, which busy rejects with a panic, and an id from
	// that directory's txnSeq, which could match.
	txns sim.FreeList[txn]

	// nextFree models the controller's occupancy: every message the
	// directory processes (requests, probes' acks, puts) holds the
	// pipeline for one LookupLatency, so back-invalidation storms congest
	// hot home nodes — a first-order effect of probe-filter thrash.
	nextFree sim.Time

	stats DirStats
}

// NewDirCtrl builds a directory controller.
func NewDirCtrl(cfg Config, pf *ProbeFilter, eng *sim.Engine, port coherence.Port, dc *dram.Controller) *DirCtrl {
	if cfg.Nodes <= 0 {
		panic("core: directory needs a positive node count")
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 5 * sim.Nanosecond
	}
	if cfg.Alloc == nil {
		panic("core: directory needs an allocation policy")
	}
	if cfg.Size == 0 || cfg.Size%mem.PageBytes != 0 {
		panic("core: directory home range must be page-aligned and non-empty")
	}
	if cfg.Versions == nil || cfg.Msgs == nil || cfg.Events == nil {
		panic("core: directory needs version blocks, a message pool and an event list")
	}
	return &DirCtrl{
		cfg:   cfg,
		base:  mem.PAddr(uint64(cfg.Node) * cfg.Size),
		alloc: cfg.Alloc,
		pf:    pf,
		eng:   eng,
		port:  port,
		dram:  dc,
	}
}

// Node returns the directory's node ID.
func (d *DirCtrl) Node() mem.NodeID { return d.cfg.Node }

// PF exposes the probe filter (stats, invariant checks).
func (d *DirCtrl) PF() *ProbeFilter { return d.pf }

// DRAM exposes the node's memory controller.
func (d *DirCtrl) DRAM() *dram.Controller { return d.dram }

// Stats returns a copy of the directory statistics.
func (d *DirCtrl) Stats() DirStats { return d.stats }

// ResetStats zeroes the directory counters (including the probe
// filter's), keeping all protocol state; measurement begins after warmup.
func (d *DirCtrl) ResetStats() {
	d.stats = DirStats{}
	d.pf.ResetStats()
}

// Quiesced reports whether no transactions are in flight (test helper).
func (d *DirCtrl) Quiesced() bool { return d.nbusy == 0 }

// DRAMVersion returns the current DRAM data version of a line (invariant
// checks).
func (d *DirCtrl) DRAMVersion(addr mem.PAddr) uint64 {
	return d.version(mem.LineOf(addr))
}

// occupy reserves the directory pipeline for one message slot starting
// no earlier than now, returning the slot's completion time.
func (d *DirCtrl) occupy(now sim.Time) sim.Time {
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + d.cfg.LookupLatency
	return d.nextFree
}

// dirEvent is one scheduled directory occurrence: a transaction dispatch,
// a DRAM completion, a deferred ack, or an allocation retry. Records are
// recycled through the machine's DirEvents list. Transaction-bound kinds
// carry the transaction id observed at scheduling time; a mismatch at
// fire time means the transaction restarted (or finished and was
// recycled) and the event is stale.
type dirEvent struct {
	d    *DirCtrl
	kind uint8
	t    *txn
	id   uint64
	m    *Msg
}

// DirEvents is the dirEvent free list that a machine's directories share.
type DirEvents = sim.FreeList[dirEvent]

const (
	evDispatch uint8 = iota
	evDRAM
	evAck
	evRetry
)

// Handle implements sim.Handler: the record is returned to the free list
// before the flow runs, so re-entrant scheduling can reuse it.
func (ev *dirEvent) Handle(now sim.Time) {
	d, kind, t, id, m := ev.d, ev.kind, ev.t, ev.id, ev.m
	ev.t, ev.m = nil, nil
	d.cfg.Events.Put(ev)
	switch kind {
	case evDispatch:
		if d.busy(t.addr) != t || t.id != id {
			return // superseded (defensive; should not happen)
		}
		d.dispatch(now, t)
	case evDRAM:
		if d.busy(t.addr) != t || t.id != id {
			return // transaction restarted; the stale read is discarded
		}
		t.dramDone = true
		t.dramDoneAt = now
		d.maybeSendData(t)
		d.tryComplete(now, t)
	case evAck:
		d.handleAck(now, m)
		m.Release()
	case evRetry:
		if d.busy(t.addr) == t && t.id == id {
			d.dispatch(now, t)
		}
	}
}

// schedule queues a directory event of the given kind at time at, using a
// recycled record when one is free.
func (d *DirCtrl) schedule(at sim.Time, kind uint8, t *txn, m *Msg) {
	ev := d.cfg.Events.Get()
	ev.d, ev.kind, ev.t, ev.m = d, kind, t, m
	if t != nil {
		ev.id = t.id
	}
	d.eng.Schedule(at, ev)
}

// HandleMsg processes a message addressed to this directory. The
// directory is the message's final owner. Most opcodes are consumed
// within the call and released immediately; acks are released after
// their deferred processing fires, and requests are retained (in the
// active transaction or the waiter queue) until their transaction
// finishes.
func (d *DirCtrl) HandleMsg(now sim.Time, m *Msg) {
	switch m.Op {
	case coherence.GetS, coherence.GetM:
		d.handleRequest(now, m)
	case coherence.PutM, coherence.PutE:
		d.handlePut(now, m)
		m.Release()
	case coherence.Ack, coherence.AckData:
		d.schedule(d.occupy(now), evAck, nil, m)
	case coherence.CmpAck:
		d.handleCmpAck(m)
		m.Release()
	default:
		panic(fmt.Sprintf("core: directory received %v", m))
	}
}

// Msg aliases coherence.Msg for readability inside this package.
type Msg = coherence.Msg

// isGetM reports whether a request wants ownership.
func isGetM(m *Msg) bool { return m.Op == coherence.GetM }

func (d *DirCtrl) handleRequest(now sim.Time, m *Msg) {
	if t := d.busy(m.Addr); t != nil {
		t.waiters = append(t.waiters, m)
		return
	}
	t := d.newTxn(txnRequest, m.Addr)
	t.req = m
	d.setBusy(m.Addr, t)
	d.scheduleDispatch(t)
}

// newTxn returns a fresh transaction, recycling a finished one when the
// free list has any. Ids stay globally unique across recycling, so stale
// scheduled events referencing a recycled object fail their id check.
func (d *DirCtrl) newTxn(kind txnKind, addr mem.PAddr) *txn {
	d.txnSeq++
	t := d.txns.Get()
	*t = txn{}
	t.id, t.kind, t.addr = d.txnSeq, kind, addr
	return t
}

// scheduleDispatch runs the PF lookup and flow selection after the
// directory access latency, queueing behind other work at the controller.
func (d *DirCtrl) scheduleDispatch(t *txn) {
	d.schedule(d.occupy(d.eng.Now()), evDispatch, t, nil)
}

// dispatch selects and starts the coherence flow for a request txn.
func (d *DirCtrl) dispatch(now sim.Time, t *txn) {
	r := t.req.Src
	isLocal := r == d.cfg.Node
	if !t.counted {
		t.counted = true
		if isLocal {
			d.stats.LocalRequests++
		} else {
			d.stats.RemoteRequests++
		}
	}

	e, ok := d.pf.Lookup(t.addr)
	if !ok {
		d.missFlow(now, t, isLocal)
		return
	}
	d.hitFlow(now, t, e)
}

// missFlow handles a request whose line has no probe-filter entry. The
// allocation policy picks one of three flows: allocate-and-track (the
// conventional path, with a parallel local probe when untracked copies
// may exist at the home core), an untracked local grant (ALLARM's
// thread-local fast path), or an uncached grant (deferred allocation).
func (d *DirCtrl) missFlow(now sim.Time, t *txn, isLocal bool) {
	r := t.req.Src
	wantM := t.req.Op == coherence.GetM

	// Consult the policy once per transaction: retries and restarts
	// reuse the decision, so stateful policies see each miss once.
	if !t.decided {
		t.decided = true
		t.action = d.alloc.OnMiss(Miss{
			Addr:      uint64(t.addr),
			Requester: int(r),
			Home:      int(d.cfg.Node),
			Local:     isLocal,
			Write:     wantM,
		})
	}

	switch t.action {
	case GrantUntracked:
		if !isLocal {
			panic(fmt.Sprintf("core: policy %q granted an untracked copy to remote node %d (undiscoverable)",
				d.cfg.AllocName, r))
		}
		// Thread-local fast path: serve from DRAM with no allocation and
		// no coherence traffic (§II-A).
		t.untracked = true
		t.needData = true
		t.grant = grantFor(wantM)
		d.stats.UntrackedGrants++
		d.issueDRAM(now, t)
		return

	case GrantUncached:
		if wantM {
			panic(fmt.Sprintf("core: policy %q granted an uncached fill for a store miss", d.cfg.AllocName))
		}
		// Serve the read without installing state anywhere: no entry, no
		// cached copy. The home's own core may still hold the line
		// untracked, so remote requesters probe it like ALLARM does.
		t.untracked = true
		t.noFill = true
		d.stats.UncachedGrants++
		if !isLocal && d.alloc.ProbeLocalOnRemoteMiss(uint64(t.addr)) {
			d.sendLocalProbe(t, r, cache.Shared, true)
			d.issueDRAM(now, t)
			return
		}
		t.needData = true
		t.grant = cache.Shared
		d.issueDRAM(now, t)
		return
	}

	// Track: allocate an entry; this may evict a victim that must be
	// back-invalidated from every cache (the paper's central overhead).
	victim, evicted, ok := d.pf.Alloc(t.addr, EntryEM, r, d.lineBusy)
	if !ok {
		d.stats.AllocRetries++
		d.schedule(d.eng.Now()+d.cfg.RetryDelay, evRetry, t, nil)
		return
	}
	if evicted {
		d.startEviction(now, victim)
	}
	t.finalValid = true
	t.finalState = EntryEM
	t.finalOwner = r

	if !isLocal && d.alloc.ProbeLocalOnRemoteMiss(uint64(t.addr)) {
		// Remote miss under a policy with untracked local copies: query
		// the home's own core, in parallel with the DRAM access (§II-D).
		probeGrant := cache.Shared // a hit means the line is now shared
		if wantM {
			probeGrant = cache.Modified
		}
		d.sendLocalProbe(t, r, probeGrant, false)
		d.issueDRAM(now, t)
		return
	}

	// Conventional miss: the line is uncached anywhere (the PF is
	// inclusive), so a read is granted Exclusive and a write Modified.
	t.needData = true
	t.grant = grantFor(wantM)
	d.issueDRAM(now, t)
}

// sendLocalProbe issues the PrbLocal query of the home's own core for
// transaction t, forwarding any owner data to requester r with grant.
func (d *DirCtrl) sendLocalProbe(t *txn, r mem.NodeID, grant cache.State, noFill bool) {
	t.localProbe = true
	d.stats.LocalProbes++
	m := d.cfg.Msgs.Get()
	m.Op, m.Addr, m.Src, m.Dst = coherence.PrbLocal, t.addr, d.cfg.Node, d.cfg.Node
	m.Mode, m.ForwardTo, m.Grant, m.TxnID = t.req.Op, r, grant, t.id
	m.NoFill = noFill
	d.port.Send(m)
}

func grantFor(wantM bool) cache.State {
	if wantM {
		return cache.Modified
	}
	return cache.Exclusive
}

// hitFlow handles a request whose line has a probe-filter entry.
func (d *DirCtrl) hitFlow(now sim.Time, t *txn, e Entry) {
	r := t.req.Src
	wantM := t.req.Op == coherence.GetM

	if e.State != EntryS && e.Owner == r && !(e.State == EntryO && wantM) {
		// The supposed owner is asking for the line, so its eviction
		// notification must still be in flight (our NoC preserves FIFO
		// per route, so this is defensive). Park until the put arrives —
		// or apply it right away if it landed while this transaction was
		// waiting for its directory slot.
		d.stats.StaleOwnerRequests++
		if t.entryTouched && t.putSrc == e.Owner {
			d.applyDeferredPut(t)
			d.restart(t)
			return
		}
		t.parked = true
		d.stats.ParkedTxns++
		return
	}

	switch e.State {
	case EntryEM:
		t.expectOwner, t.haveExpect = e.Owner, true
		t.directed = true
		t.pendingAcks = 1
		d.stats.DirectedProbes++
		op := coherence.PrbDown
		grant := cache.Shared
		if wantM {
			op = coherence.PrbInv
			grant = cache.Modified
			t.finalValid, t.finalState, t.finalOwner = true, EntryEM, r
		}
		// For GetS the final entry depends on the owner's state (M→O(o),
		// E→S), decided when the ack arrives.
		m := d.cfg.Msgs.Get()
		m.Op, m.Addr, m.Src, m.Dst = op, t.addr, d.cfg.Node, e.Owner
		m.Mode, m.ForwardTo, m.Grant, m.TxnID = t.req.Op, r, grant, t.id
		d.port.Send(m)

	case EntryO:
		if !wantM {
			t.expectOwner, t.haveExpect = e.Owner, true
			t.directed = true
			t.pendingAcks = 1
			d.stats.DirectedProbes++
			t.finalValid, t.finalState, t.finalOwner = true, EntryO, e.Owner
			m := d.cfg.Msgs.Get()
			m.Op, m.Addr, m.Src, m.Dst = coherence.PrbDown, t.addr, d.cfg.Node, e.Owner
			m.Mode, m.ForwardTo, m.Grant, m.TxnID = t.req.Op, r, cache.Shared, t.id
			d.port.Send(m)
			return
		}
		if e.Owner == r {
			// Ownership upgrade by the O-state owner itself: invalidate
			// the unknown sharers; the requester already holds the only
			// current data, so no DRAM access is needed and the grant
			// message merely confers ownership.
			t.finalValid, t.finalState, t.finalOwner = true, EntryEM, r
			t.needData = true
			t.grant = cache.Modified
			t.dramDone, t.dramDoneAt = true, now
			d.broadcastInv(t, r, cache.Modified)
			return
		}
		// GetM with unknown sharers: broadcast invalidations (Hammer).
		t.expectOwner, t.haveExpect = e.Owner, true
		t.finalValid, t.finalState, t.finalOwner = true, EntryEM, r
		d.broadcastInv(t, r, cache.Modified)

	case EntryS:
		if !wantM {
			t.needData = true
			t.grant = cache.Shared
			t.finalValid, t.finalState, t.finalOwner = true, EntryS, coherence.NoNode
			d.issueDRAM(now, t)
			return
		}
		// GetM: invalidate unknown sharers everywhere, fetch from DRAM
		// (no owner exists for an S entry, so DRAM is current).
		t.needData = true
		t.grant = cache.Modified
		t.finalValid, t.finalState, t.finalOwner = true, EntryEM, r
		d.broadcastInv(t, r, cache.Modified)
		d.issueDRAM(now, t)
	}
}

// broadcastInv sends PrbInv to every node except the requester.
func (d *DirCtrl) broadcastInv(t *txn, requester mem.NodeID, grant cache.State) {
	d.stats.Broadcasts++
	for n := 0; n < d.cfg.Nodes; n++ {
		dst := mem.NodeID(n)
		if dst == requester {
			continue
		}
		t.pendingAcks++
		m := d.cfg.Msgs.Get()
		m.Op, m.Addr, m.Src, m.Dst = coherence.PrbInv, t.addr, d.cfg.Node, dst
		m.Mode, m.ForwardTo, m.Grant, m.TxnID = coherence.GetM, requester, grant, t.id
		d.port.Send(m)
	}
}

// lineBusy reports whether a line has an in-flight transaction (probe-
// filter victim selection must skip such lines).
func (d *DirCtrl) lineBusy(addr mem.PAddr) bool {
	return d.busy(addr) != nil
}

// issueDRAM starts a DRAM line read for t; the completion event (an
// evDRAM dirEvent) records the data version present at completion time (a
// write landing during the access is visible, as in a real controller's
// write buffer check).
func (d *DirCtrl) issueDRAM(now sim.Time, t *txn) {
	d.schedule(d.dram.Read(now), evDRAM, t, nil)
}

// maybeSendData sends the home's DataMsg once every prerequisite holds:
// DRAM data present, invalidation acks collected, and any local probe
// resolved (the probe may supersede the DRAM data entirely).
func (d *DirCtrl) maybeSendData(t *txn) {
	if !t.needData || t.dataSent || t.parked {
		return
	}
	if !t.dramDone || t.pendingAcks > 0 {
		return
	}
	if t.localProbe && !t.localProbeDone {
		return
	}
	t.dataSent = true
	m := d.cfg.Msgs.Get()
	m.Op, m.Addr, m.Src, m.Dst = coherence.DataMsg, t.addr, d.cfg.Node, t.req.Src
	m.Grant, m.Untracked, m.NoFill = t.grant, t.untracked, t.noFill
	m.Version, m.TxnID = d.version(t.addr), t.id
	d.port.Send(m)
}

// handleAck routes probe acknowledgements to their transaction.
func (d *DirCtrl) handleAck(now sim.Time, m *Msg) {
	t := d.busy(m.Addr)
	if t == nil || t.id != m.TxnID {
		// Stale ack from a restarted transaction: impossible by
		// construction (parking implies all acks arrived), kept as a
		// defensive drop.
		return
	}
	if t.kind == txnEviction {
		d.evictionAck(now, t, m)
		return
	}
	if t.localProbe && !t.localProbeDone {
		d.localProbeAck(now, t, m)
		return
	}
	d.requestAck(now, t, m)
}

func ownerState(s cache.State) bool {
	return s == cache.Modified || s == cache.Owned || s == cache.Exclusive
}

// requestAck processes an ack in a directed or broadcast request flow.
func (d *DirCtrl) requestAck(now sim.Time, t *txn, m *Msg) {
	if t.pendingAcks <= 0 {
		panic("core: unexpected ack")
	}
	t.pendingAcks--

	if m.Op == coherence.AckData && m.Dirty {
		// A probed owner returned dirty data to the home rather than
		// forwarding (no requester destination applies only to
		// evictions) — not expected in request flows.
		panic("core: AckData in request flow")
	}

	if m.Hit && ownerState(m.PrevState) {
		t.dataForwarded = true
		if !isGetM(t.req) {
			// GetS: the entry's final state depends on what the owner
			// held: M downgrades to O (owner keeps dirty data), E
			// becomes S (no owner).
			switch m.PrevState {
			case cache.Modified, cache.Owned:
				t.finalValid, t.finalState, t.finalOwner = true, EntryO, m.Src
			case cache.Exclusive:
				t.finalValid, t.finalState, t.finalOwner = true, EntryS, coherence.NoNode
			}
		}
	}

	if t.haveExpect && m.Src == t.expectOwner && !m.Hit {
		// The owner no longer holds the line: its PutM/PutE is in
		// flight. For directed flows, park until it arrives; for
		// broadcasts the put's DRAM write precedes this ack (FIFO per
		// route), so falling back to DRAM is already safe.
		if t.directed {
			if t.entryTouched && t.putSrc == t.expectOwner {
				// The writeback already arrived while this transaction
				// was active (its entry effect was deferred): apply it
				// and restart with a fresh lookup.
				d.applyDeferredPut(t)
				d.restart(t)
				return
			}
			t.parked = true
			d.stats.ParkedTxns++
			return
		}
		if !t.dataForwarded {
			// Broadcast flow that expected owner data: fetch from DRAM.
			t.needData = true
			if t.grant == cache.Invalid {
				t.grant = grantFor(isGetM(t.req))
			}
			if !t.dramDone {
				d.issueDRAM(now, t)
			}
		}
	}

	d.maybeSendData(t)
	d.tryComplete(now, t)
}

// localProbeAck resolves ALLARM's parallel local probe.
func (d *DirCtrl) localProbeAck(now sim.Time, t *txn, m *Msg) {
	t.localProbeDone = true
	t.localProbeAt = now
	t.localProbeHit = m.Hit

	if m.Hit {
		d.stats.LocalProbeHits++
		if ownerState(m.PrevState) {
			// The home's core held the line untracked and forwarded data
			// directly to the requester.
			t.dataForwarded = true
			if t.noFill {
				// Uncached service installed no entry; the home core's
				// copy stays untracked (downgraded by the probe).
			} else if isGetM(t.req) {
				t.finalValid, t.finalState, t.finalOwner = true, EntryEM, t.req.Src
			} else {
				switch m.PrevState {
				case cache.Modified, cache.Owned:
					t.finalValid, t.finalState, t.finalOwner = true, EntryO, d.cfg.Node
				default: // Exclusive (clean): no owner remains
					t.finalValid, t.finalState, t.finalOwner = true, EntryS, coherence.NoNode
				}
			}
		} else {
			// Clean shared copy at the home core: DRAM is current.
			t.needData = true
			if t.noFill {
				t.grant = cache.Shared
			} else if isGetM(t.req) {
				t.grant = cache.Modified
				t.finalValid, t.finalState, t.finalOwner = true, EntryEM, t.req.Src
			} else {
				t.grant = cache.Shared
				t.finalValid, t.finalState, t.finalOwner = true, EntryS, coherence.NoNode
			}
		}
	} else {
		// Probe missed: the DRAM access is the critical path, exactly the
		// case ALLARM hides (§II-D).
		t.needData = true
		if t.noFill {
			t.grant = cache.Shared
		} else {
			t.grant = grantFor(isGetM(t.req))
		}
	}

	d.maybeSendData(t)
	d.tryComplete(now, t)
}

// handleCmpAck closes a transaction once the requester has filled.
func (d *DirCtrl) handleCmpAck(m *Msg) {
	t := d.busy(m.Addr)
	if t == nil || t.id != m.TxnID {
		return
	}
	t.cmpReceived = true
	d.tryComplete(d.eng.Now(), t)
}

// tryComplete finishes a request transaction when its flow is fully
// resolved: acks collected, data delivered (by the home or a forwarding
// owner), local probe resolved, and the requester's completion ack
// received.
func (d *DirCtrl) tryComplete(now sim.Time, t *txn) {
	if t.kind != txnRequest || t.parked {
		return
	}
	if t.pendingAcks > 0 || !t.cmpReceived {
		return
	}
	if t.localProbe && !t.localProbeDone {
		return
	}
	if !t.dataForwarded && !t.dataSent {
		return
	}

	// Figure 3g accounting: the probe was off the critical path when it
	// missed and resolved no later than the DRAM data.
	if t.localProbe && !t.localProbeHit && t.dramDone && t.localProbeAt <= t.dramDoneAt {
		d.stats.LocalProbesHidden++
	}

	if t.finalValid {
		if t.entryTouched && t.finalState == EntryO && t.putSrc == t.finalOwner {
			// The owner wrote the line back while the transaction was
			// completing; DRAM is current and no owner remains.
			t.finalState, t.finalOwner = EntryS, coherence.NoNode
		}
		i := d.pf.find(t.addr)
		if i < 0 {
			panic(fmt.Sprintf("core: entry for %#x vanished during transaction", uint64(t.addr)))
		}
		if d.pf.state(i) != t.finalState || d.pf.owners[i] != t.finalOwner {
			d.pf.update(i, t.finalState, t.finalOwner)
		}
	}

	d.finish(now, t)
}

// finish releases the line, recycles the transaction and its request
// message, and dispatches the next queued request, which inherits the
// rest of the queue.
func (d *DirCtrl) finish(now sim.Time, t *txn) {
	addr, q := t.addr, t.waiters
	if t.req != nil {
		t.req.Release()
		t.req = nil
	}
	t.waiters = nil
	d.txns.Put(t)
	if len(q) == 0 {
		d.setBusy(addr, nil)
		return
	}
	nt := d.newTxn(txnRequest, addr)
	nt.req = q[0]
	if len(q) > 1 {
		nt.waiters = q[1:]
	}
	d.setBusy(addr, nt)
	d.scheduleDispatch(nt)
}

// restart re-dispatches a transaction from scratch (fresh PF lookup)
// after a raced writeback invalidated its flow. No acks or data are in
// flight at restart time by construction.
func (d *DirCtrl) restart(t *txn) {
	d.stats.Restarts++
	d.txnSeq++
	t.id = d.txnSeq
	t.pendingAcks = 0
	t.expectOwner, t.haveExpect = 0, false
	t.needData, t.grant = false, cache.Invalid
	t.dramDone, t.dataSent, t.dataForwarded = false, false, false
	t.cmpReceived = false
	t.parked, t.entryTouched = false, false
	t.localProbe, t.localProbeDone, t.localProbeHit = false, false, false
	t.untracked, t.noFill = false, false
	t.finalValid = false
	d.scheduleDispatch(t)
}

// handlePut applies an eviction notification. The DRAM write (for PutM)
// always applies immediately — a real controller's write buffer is
// visible to subsequent reads — while the entry effect is deferred to the
// active transaction when the line is busy.
func (d *DirCtrl) handlePut(now sim.Time, m *Msg) {
	if m.Op == coherence.PutM {
		d.dramWrite(now, m.Addr, m.Version)
	}
	t := d.busy(m.Addr)
	if t == nil {
		d.applyPutToEntry(m)
		return
	}
	switch {
	case t.kind == txnEviction:
		// Entry already gone; the data write above is all that matters.
	case t.parked:
		d.applyPutToEntry(m)
		d.restart(t)
	default:
		t.entryTouched = true
		t.putSrc = m.Src
	}
}

// applyDeferredPut applies the entry effect of a put whose processing was
// deferred because t was active: EM entries owned by the put's sender are
// freed; O entries demote to S (an O eviction is always a PutM, so the
// data is already in DRAM).
func (d *DirCtrl) applyDeferredPut(t *txn) {
	i := d.pf.find(t.addr)
	if i < 0 || d.pf.owners[i] != t.putSrc {
		return
	}
	switch d.pf.state(i) {
	case EntryEM:
		d.pf.free(i)
	case EntryO:
		d.pf.update(i, EntryS, coherence.NoNode)
	}
}

// applyPutToEntry updates the probe filter for a writeback/notification:
// EM entries owned by the sender are freed; O entries demote to S (the
// dirty data just landed in DRAM, sharers may remain). Mismatched owners
// mean the put is stale and the entry is left alone.
func (d *DirCtrl) applyPutToEntry(m *Msg) {
	i := d.pf.find(m.Addr)
	if i < 0 {
		return // untracked (ALLARM) or already replaced
	}
	switch d.pf.state(i) {
	case EntryEM:
		if d.pf.owners[i] == m.Src {
			d.pf.free(i)
		}
	case EntryO:
		if d.pf.owners[i] == m.Src && m.Op == coherence.PutM {
			d.pf.update(i, EntryS, coherence.NoNode)
		}
	case EntryS:
		// No owner: nothing to update.
	}
}

// dramWrite commits a writeback version, tracking the data-value
// invariant: versions must never regress.
func (d *DirCtrl) dramWrite(now sim.Time, addr mem.PAddr, version uint64) {
	d.dram.Write(now)
	if version < d.version(addr) {
		d.stats.StaleVersionWrites++
		return
	}
	d.setVersion(addr, version)
}

// startEviction launches the back-invalidation of a replaced probe-filter
// entry: a directed probe for EM entries, a full broadcast for O/S
// entries (sharers unknown). Every message it causes is charged to
// EvictionMsgs (Figure 3d).
func (d *DirCtrl) startEviction(now sim.Time, victim Entry) {
	t := d.newTxn(txnEviction, victim.Addr)
	if d.busy(victim.Addr) != nil {
		panic("core: eviction victim line already busy")
	}
	d.setBusy(victim.Addr, t)

	send := func(dst mem.NodeID) {
		t.pendingAcks++
		if dst != d.cfg.Node {
			d.stats.EvictionMsgs++ // the probe; the ack is counted on receipt
		}
		m := d.cfg.Msgs.Get()
		m.Op, m.Addr, m.Src, m.Dst = coherence.PrbInv, victim.Addr, d.cfg.Node, dst
		m.Mode, m.ForwardTo, m.TxnID = coherence.GetM, coherence.NoNode, t.id
		d.port.Send(m)
	}

	if victim.State == EntryEM {
		d.stats.DirectedProbes++
		send(victim.Owner)
	} else {
		d.stats.Broadcasts++
		for n := 0; n < d.cfg.Nodes; n++ {
			send(mem.NodeID(n))
		}
	}
}

// evictionAck collects back-invalidation acks; dirty data is written to
// DRAM.
func (d *DirCtrl) evictionAck(now sim.Time, t *txn, m *Msg) {
	if t.pendingAcks <= 0 {
		panic("core: unexpected eviction ack")
	}
	t.pendingAcks--
	if m.Src != d.cfg.Node {
		d.stats.EvictionMsgs++
	}
	d.stats.EvictionProbes++
	if m.Hit {
		d.stats.EvictionProbeHits++
	}
	if m.Op == coherence.AckData && m.Dirty {
		d.stats.EvictionWritebacks++
		d.dramWrite(now, t.addr, m.Version)
	}
	if t.pendingAcks == 0 {
		d.finish(now, t)
	}
}
