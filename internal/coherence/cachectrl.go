package coherence

import (
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// CtrlStats counts cache-controller events.
type CtrlStats struct {
	Requests     uint64 // GetS/GetM sent
	Fills        uint64
	ProbesServed uint64
	PutMs        uint64
	PutEs        uint64
	// UntrackedFills counts ALLARM fills granted without a probe-filter
	// entry (thread-local service path).
	UntrackedFills uint64
	// UncachedFills counts no-fill grants: the data was consumed without
	// installing the line (deferred-allocation policies).
	UncachedFills uint64
}

// CacheCtrl is one node's cache-side coherence controller, fronting the
// private L1/L2 hierarchy. It services core accesses (one outstanding
// demand miss, matching the in-order cores of the evaluated system) and
// answers coherence probes.
type CacheCtrl struct {
	node mem.NodeID
	hier *cache.Hierarchy
	eng  *sim.Engine
	port Port
	home func(mem.PAddr) mem.NodeID

	// serviceTime is the tag/data array occupancy per operation (Table I:
	// 1 ns cache access latency); probes and demand accesses contend for
	// it through nextFree.
	serviceTime sim.Time
	nextFree    sim.Time

	// pending is the single outstanding demand miss, held inline so a
	// miss costs no allocation.
	pending    mshr
	hasPending bool

	// pool is the machine's message pool, shared by all its controllers.
	pool *MsgPool

	// OnStore and OnLoad, when non-nil, observe every committed store
	// (with the line's new version) and completed load (with the version
	// read). The system's invariant checker uses them; they are nil in
	// performance runs.
	OnStore func(addr mem.PAddr, version uint64)
	OnLoad  func(addr mem.PAddr, version uint64)

	stats CtrlStats
}

// mshr is the single outstanding demand miss. done is a Handler — not
// a closure — so an in-flight miss can be checkpointed: the system
// layer resolves the handler's identity through its snapshot registry.
type mshr struct {
	addr   mem.PAddr
	write  bool
	issued sim.Time
	done   sim.Handler
}

// outbox is the Receiver of a message whose send a controller deferred
// until its arrays release it: when the message fires, it enters the
// network. Being one pointer, it goes into a Receiver without allocating.
type outbox struct{ c *CacheCtrl }

// HandleMsg implements Receiver.
func (o outbox) HandleMsg(_ sim.Time, m *Msg) { o.c.port.Send(m) }

// NewCacheCtrl builds a controller for node over hier, sending messages
// taken from pool through port and resolving line homes with home.
func NewCacheCtrl(node mem.NodeID, hier *cache.Hierarchy, eng *sim.Engine, port Port, pool *MsgPool, home func(mem.PAddr) mem.NodeID, serviceTime sim.Time) *CacheCtrl {
	return &CacheCtrl{
		node:        node,
		hier:        hier,
		eng:         eng,
		port:        port,
		pool:        pool,
		home:        home,
		serviceTime: serviceTime,
	}
}

// Node returns the controller's node ID.
func (c *CacheCtrl) Node() mem.NodeID { return c.node }

// Hierarchy exposes the private caches (stats, invariant checks).
func (c *CacheCtrl) Hierarchy() *cache.Hierarchy { return c.hier }

// Stats returns a copy of the controller statistics.
func (c *CacheCtrl) Stats() CtrlStats { return c.stats }

// ResetStats zeroes the controller and hierarchy counters, keeping cache
// contents (measurement begins after warmup).
func (c *CacheCtrl) ResetStats() {
	c.stats = CtrlStats{}
	c.hier.ResetStats()
}

// occupy reserves the tag/data arrays for one operation starting no
// earlier than now and returns the operation's completion time.
func (c *CacheCtrl) occupy(now sim.Time) sim.Time {
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	c.nextFree = start + c.serviceTime
	return c.nextFree
}

// CoreAccess performs a demand load (write=false) or store (write=true)
// to addr. done.Handle runs when the access completes (hit latency for
// hits; the full coherence transaction for misses). At most one access
// may be outstanding. done is a typed Handler rather than a closure so
// that a miss parked in the MSHR — or the completion event already in
// the queue — remains serializable for machine-state checkpoints.
func (c *CacheCtrl) CoreAccess(now sim.Time, addr mem.PAddr, write bool, done sim.Handler) {
	if c.hasPending {
		panic(fmt.Sprintf("coherence: node %d issued a second outstanding access", c.node))
	}
	addr = mem.LineOf(addr)
	t := c.occupy(now)
	res := c.hier.Access(addr, write)
	if res.Level == 2 {
		t = c.occupy(t) // second array access for the L2 swap
	}
	c.sendPuts(res.Victims)

	if res.Outcome == cache.Hit {
		l := res.Line
		if !l.Ok() {
			panic("coherence: hit without a line")
		}
		if write {
			if !l.State().Writable() {
				panic("coherence: store hit without writable line")
			}
			l.SetVersion(l.Version() + 1)
			if c.OnStore != nil {
				c.OnStore(addr, l.Version())
			}
		} else if c.OnLoad != nil {
			c.OnLoad(addr, l.Version())
		}
		c.eng.Schedule(t, done)
		return
	}

	op := GetS
	if write {
		op = GetM
	}
	c.pending = mshr{addr: addr, write: write, issued: now, done: done}
	c.hasPending = true
	c.stats.Requests++
	m := c.pool.Get()
	m.Op, m.Addr, m.Src, m.Dst, m.ToDir = op, addr, c.node, c.home(addr), true
	c.port.Send(m)
}

// HandleMsg processes a message delivered to this node's cache controller.
// The controller is the message's final owner: it releases m (back to the
// machine's pool) once the handling flow has consumed it.
func (c *CacheCtrl) HandleMsg(now sim.Time, m *Msg) {
	switch m.Op {
	case DataMsg:
		c.handleFill(now, m)
	case PrbInv, PrbDown, PrbLocal:
		c.handleProbe(now, m)
	default:
		panic(fmt.Sprintf("coherence: cache controller received %v", m))
	}
	m.Release()
}

func (c *CacheCtrl) handleFill(now sim.Time, m *Msg) {
	if !c.hasPending || c.pending.addr != m.Addr {
		panic(fmt.Sprintf("coherence: node %d fill %v without matching MSHR", c.node, m))
	}
	p := c.pending
	c.pending = mshr{}
	c.hasPending = false
	t := c.occupy(now)

	if m.NoFill {
		// Uncached service: the access completes with the delivered data
		// but the line is not installed, so no copy (and no tracking
		// state) survives the transaction. Only read misses may be served
		// this way — an uncached store would have nowhere to commit.
		if p.write {
			panic(fmt.Sprintf("coherence: node %d received a no-fill grant for a store miss", c.node))
		}
		c.stats.UncachedFills++
		if c.OnLoad != nil {
			c.OnLoad(m.Addr, m.Version)
		}
		cmp := c.pool.Get()
		cmp.Op, cmp.Addr, cmp.Src, cmp.Dst, cmp.ToDir = CmpAck, m.Addr, c.node, c.home(m.Addr), true
		cmp.TxnID = m.TxnID
		c.port.Send(cmp)
		c.eng.Schedule(t, p.done)
		return
	}

	c.stats.Fills++
	if m.Untracked {
		c.stats.UntrackedFills++
	}

	// An upgrade grant can race a stale-but-older DRAM copy: if we still
	// hold the line with newer data (we were the O-state owner asking for
	// ownership), our version wins.
	l := c.hier.Find(m.Addr)
	version := max(m.Version, l.Version())
	grant := m.Grant
	if p.write {
		if !grant.Writable() {
			panic(fmt.Sprintf("coherence: store fill granted non-writable state %v", grant))
		}
		grant = cache.Modified
		version++ // the store commits into the filled line
	}
	victims := c.hier.FillAt(l, m.Addr, grant, m.Untracked, version)
	c.sendPuts(victims)
	if p.write {
		if c.OnStore != nil {
			c.OnStore(m.Addr, version)
		}
	} else if c.OnLoad != nil {
		c.OnLoad(m.Addr, version)
	}

	// Close the transaction at the home (AMD Hammer's SrcDone): the home
	// keeps the line busy until this arrives, which guarantees any probe
	// we receive for a line with a pending MSHR belongs to an older
	// transaction and can be answered from current state.
	cmp := c.pool.Get()
	cmp.Op, cmp.Addr, cmp.Src, cmp.Dst, cmp.ToDir = CmpAck, m.Addr, c.node, c.home(m.Addr), true
	cmp.TxnID = m.TxnID
	c.port.Send(cmp)
	c.eng.Schedule(t, p.done)
}

// handleProbe answers PrbInv / PrbDown / PrbLocal after queueing for the
// arrays. Owner states (M, O, E) forward data directly to m.ForwardTo
// when set; dirty data with no forward destination returns to the home
// for DRAM writeback (back-invalidation).
func (c *CacheCtrl) handleProbe(now sim.Time, m *Msg) {
	t := c.occupy(now)
	if m.Op == PrbLocal {
		// ALLARM's state query walks both private levels (L1 and L2 tag
		// arrays), stealing a second cycle of array bandwidth from the
		// local core — the "modest overhead" of §III-A1.
		t = c.occupy(t)
	}
	c.stats.ProbesServed++

	invalidate := m.Op == PrbInv || (m.Op == PrbLocal && m.Mode == GetM)

	// One lookup serves the reply and the state change; an absent line
	// reads as Invalid, version 0.
	l := c.hier.Find(m.Addr)
	prev, version := l.State(), l.Version()

	owner := prev == cache.Modified || prev == cache.Owned || prev == cache.Exclusive
	dirty := prev.Dirty()

	if invalidate {
		c.hier.Invalidate(l)
	} else {
		c.hier.Downgrade(l)
	}

	ack := c.pool.Get()
	ack.Op, ack.Addr, ack.Src, ack.Dst, ack.ToDir = Ack, m.Addr, c.node, m.Src, true
	ack.Hit, ack.PrevState, ack.Version, ack.TxnID = prev.Valid(), prev, version, m.TxnID
	if owner && m.ForwardTo != NoNode {
		// Cache-to-cache transfer straight to the requester.
		data := c.pool.Get()
		data.Op, data.Addr, data.Src, data.Dst = DataMsg, m.Addr, c.node, m.ForwardTo
		data.Grant, data.Version, data.TxnID = m.Grant, version, m.TxnID
		data.NoFill = m.NoFill // uncached service rides the probe
		c.sendAt(t, data)
	} else if owner && dirty {
		// Back-invalidation (or downgrade) with no requester: dirty data
		// returns to the home for DRAM writeback.
		ack.Op = AckData
		ack.Dirty = true
	}
	c.sendAt(t, ack)
}

// sendAt injects m when the arrays release it (the controller's port is
// modelled as available at service completion).
func (c *CacheCtrl) sendAt(t sim.Time, m *Msg) {
	if t <= c.eng.Now() {
		c.port.Send(m)
		return
	}
	c.eng.Schedule(t, m.To(outbox{c}))
}

// sendPuts issues eviction notifications for hierarchy victims: PutM for
// dirty lines (M/O), PutE for clean-exclusive lines. Victims of untracked
// ALLARM lines are homed at this node, so these messages never cross the
// NoC for thread-local data.
func (c *CacheCtrl) sendPuts(victims []cache.Victim) {
	for _, v := range victims {
		switch v.State {
		case cache.Modified, cache.Owned:
			c.stats.PutMs++
			m := c.pool.Get()
			m.Op, m.Addr, m.Src, m.Dst, m.ToDir = PutM, v.Addr, c.node, c.home(v.Addr), true
			m.Dirty, m.Version, m.PrevState = true, v.Version, v.State
			c.port.Send(m)
		case cache.Exclusive:
			c.stats.PutEs++
			m := c.pool.Get()
			m.Op, m.Addr, m.Src, m.Dst, m.ToDir = PutE, v.Addr, c.node, c.home(v.Addr), true
			m.PrevState = v.State
			c.port.Send(m)
		default:
			panic(fmt.Sprintf("coherence: victim in unexpected state %v", v.State))
		}
	}
}
