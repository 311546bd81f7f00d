// Package system assembles the simulated machine of Figure 1/Table I:
// sixteen nodes, each with a core (an in-order request driver), a private
// L1/L2 hierarchy fronted by a cache controller, a directory controller
// with its probe filter, and a memory controller — all joined by a 4×4
// mesh. It runs workloads to completion and collects the statistics every
// experiment is built from.
package system

import (
	"context"
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/coherence"
	"allarm/internal/core"
	"allarm/internal/dram"
	"allarm/internal/energy"
	"allarm/internal/mem"
	"allarm/internal/noc"
	"allarm/internal/sim"
	"allarm/internal/workload"
)

// Config describes a machine instance. Zero values are invalid; use the
// facade's DefaultConfig (Table I) and override fields.
type Config struct {
	Nodes      int // must equal MeshW×MeshH
	MeshW      int
	MeshH      int
	L1Bytes    int
	L1Ways     int
	L2Bytes    int
	L2Ways     int
	PFCoverage int // bytes of cached data tracked per directory
	PFWays     int

	// Alloc builds each directory's allocation policy (one instance per
	// directory, so policies may keep per-directory state); AllocName is
	// the registry name checkpoints record for it.
	Alloc     func(node mem.NodeID) core.DirectoryPolicy
	AllocName string

	CacheLatency sim.Time
	DirLatency   sim.Time
	DRAMLatency  sim.Time
	DRAMInterval sim.Time

	NoC noc.Config

	MemBytesPerNode uint64

	// CheckInvariants enables the coherence validator (SWMR, data-value,
	// PF inclusivity). Meant for tests: it adds per-access map work.
	CheckInvariants bool

	// MaxEvents aborts a run that exceeds this event budget (deadlock
	// guard); 0 means no limit.
	MaxEvents uint64
}

// Validate reports the first configuration inconsistency.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Nodes != c.MeshW*c.MeshH:
		return fmt.Errorf("system: nodes (%d) must equal mesh %dx%d", c.Nodes, c.MeshW, c.MeshH)
	case c.L1Bytes <= 0 || c.L2Bytes <= 0 || c.PFCoverage <= 0:
		return fmt.Errorf("system: cache and probe-filter sizes must be positive")
	case c.L1Ways <= 0 || c.L2Ways <= 0 || c.PFWays <= 0:
		return fmt.Errorf("system: associativities must be positive")
	case c.CacheLatency < 0 || c.DirLatency < 0 || c.DRAMLatency <= 0:
		return fmt.Errorf("system: latencies must be non-negative (DRAM positive)")
	case c.MemBytesPerNode == 0:
		return fmt.Errorf("system: per-node memory must be positive")
	case c.Alloc == nil:
		return fmt.Errorf("system: no directory allocation policy")
	}
	return c.NoC.Validate()
}

// ThreadSpec pins one software thread to a node with its access stream
// and address space (processes share an address space; the multi-process
// experiment uses one space per process).
type ThreadSpec struct {
	Node   mem.NodeID
	Stream workload.Stream
	Space  *mem.AddressSpace
	Name   string
	// Warmup, when non-nil, is replayed before the measured stream; all
	// statistics are reset at the warmup/measurement boundary, leaving
	// caches and probe filters in their steady state (the standard
	// warmup-then-measure simulation methodology).
	Warmup workload.Stream
}

// Machine is one simulated system instance.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	mesh  *noc.Mesh
	phys  *mem.PhysMem
	nodes []*node
	cpus  []*cpu
	check *checker

	// spaces records every address space created through
	// NewAddressSpace, in creation order, so a machine checkpoint can
	// capture (and a restore can re-fill) the full translation state.
	spaces []*mem.AddressSpace

	// deliveries recycles the NoC in-flight records, so message
	// delivery allocates nothing in steady state.
	deliveries sim.FreeList[delivery]

	roiStart sim.Time

	// run is the stepwise run in progress (Start/StepCtx); nil when no
	// run is active.
	run *runState

	// snapBytes is the previous snapshot's payload size, which sizes the
	// next snapshot's buffer.
	snapBytes int
}

// runPhase tracks where a stepwise run is in its lifecycle.
type runPhase uint8

const (
	phaseWarmup runPhase = iota + 1
	phaseROI
	phaseDone
)

// runState is the bookkeeping of one Start/StepCtx run: the thread set,
// the current phase, the events fired within that phase (the MaxEvents
// budget applies per phase, exactly as the original single-shot run
// loop did), and the measured region's origin.
type runState struct {
	threads    []ThreadSpec
	phase      runPhase
	phaseFired uint64
	roiStart   sim.Time
	cancelled  bool
	// fault is the first page fault that found physical memory
	// exhausted; it fails the run.
	fault error
}

type node struct {
	id   mem.NodeID
	hier *cache.Hierarchy
	cc   *coherence.CacheCtrl
	dir  *core.DirCtrl
	dram *dram.Controller
}

// port implements coherence.Port on the mesh.
type port struct{ m *Machine }

// delivery is one NoC in-flight record: a message travelling the mesh,
// scheduled as a sim.Handler for its arrival time. Records cycle through
// the machine's free list.
type delivery struct {
	m   *Machine
	msg *coherence.Msg
}

// Handle hands the message to the destination controller. The record is
// recycled first, so handlers that send further messages can reuse it.
func (d *delivery) Handle(now sim.Time) {
	m, msg := d.m, d.msg
	d.msg = nil
	m.deliveries.Put(d)
	dst := m.nodes[msg.Dst]
	if msg.ToDir {
		dst.dir.HandleMsg(now, msg)
	} else {
		dst.cc.HandleMsg(now, msg)
	}
}

// Send computes the message's network latency (with link contention) and
// schedules delivery at the destination controller.
func (p *port) Send(msg *coherence.Msg) {
	m := p.m
	arrival := m.mesh.Send(m.eng.Now(), msg.Src, msg.Dst, msg.Op.Class())
	d := m.deliveries.Get()
	d.m, d.msg = m, msg
	m.eng.Schedule(arrival, d)
}

// New builds a machine. The physical memory map is shared by all address
// spaces the caller constructs via NewAddressSpace.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		eng:  &sim.Engine{},
		mesh: noc.New(cfg.NoC),
		phys: mem.NewPhysMem(cfg.Nodes, cfg.MemBytesPerNode),
	}
	p := &port{m: m}
	home := func(a mem.PAddr) mem.NodeID { return m.phys.Home(a) }
	vers := new(core.VersionBlocks)
	for i := 0; i < cfg.Nodes; i++ {
		id := mem.NodeID(i)
		hier := cache.NewHierarchy(cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways)
		dc := dram.New(cfg.DRAMLatency, cfg.DRAMInterval)
		n := &node{
			id:   id,
			hier: hier,
			cc:   coherence.NewCacheCtrl(id, hier, m.eng, p, home, cfg.CacheLatency),
			dram: dc,
			dir: core.NewDirCtrl(core.Config{
				Node: id, Nodes: cfg.Nodes, Size: cfg.MemBytesPerNode,
				Alloc: cfg.Alloc(id), AllocName: cfg.AllocName,
				LookupLatency: cfg.DirLatency, Versions: vers,
			}, core.NewProbeFilter(cfg.PFCoverage, cfg.PFWays), m.eng, p, dc),
		}
		m.nodes = append(m.nodes, n)
	}
	if cfg.CheckInvariants {
		m.check = newChecker(m)
	}
	return m, nil
}

// Engine exposes the machine's event engine (event counts, tests).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// NewAddressSpace creates a process address space over the machine's
// physical memory. The machine remembers every space it hands out (in
// creation order) so checkpoints capture translation state.
func (m *Machine) NewAddressSpace() *mem.AddressSpace {
	s := mem.NewAddressSpace(m.phys)
	m.spaces = append(m.spaces, s)
	return s
}

// Node returns node i's directory controller (tests/diagnostics).
func (m *Machine) Node(i int) *core.DirCtrl { return m.nodes[i].dir }

// CacheCtrl returns node i's cache controller (tests/diagnostics).
func (m *Machine) CacheCtrl(i int) *coherence.CacheCtrl { return m.nodes[i].cc }

// cpu is the in-order core model: it replays its stream, blocking on each
// access until the memory system completes it. The issue loop is
// allocation-free and closure-free: stepH is a typed handler embedded in
// the cpu (so the completion event in the queue is a serializable record,
// not an anonymous function), and the cpu itself is the sim.Handler for
// accesses pended behind a think delay (at most one is outstanding).
type cpu struct {
	m        *Machine
	idx      int
	spec     ThreadSpec
	issued   uint64
	done     bool
	finished sim.Time

	stepH  cpuStep
	pendPA mem.PAddr
	pendWr bool
}

// cpuStep is the typed "issue the next access" event for one cpu. It is
// a distinct handler type (rather than the cpu itself) because the cpu
// already serves as the think-pend handler; the two roles must remain
// distinguishable both to the engine and to the checkpoint registry.
type cpuStep struct{ c *cpu }

// Handle implements sim.Handler: issue the cpu's next access.
func (s *cpuStep) Handle(now sim.Time) { s.c.step(now) }

func newCPU(m *Machine, idx int, spec ThreadSpec) *cpu {
	c := &cpu{m: m, idx: idx, spec: spec}
	c.stepH.c = c
	return c
}

// Handle issues the access pended behind a think delay.
func (c *cpu) Handle(now sim.Time) {
	c.m.nodes[c.spec.Node].cc.CoreAccess(now, c.pendPA, c.pendWr, &c.stepH)
}

func (c *cpu) step(now sim.Time) {
	acc, ok := c.spec.Stream.Next()
	if !ok {
		c.done = true
		c.finished = now
		return
	}
	c.issued++
	va := mem.VAddr(acc.VAddr)
	pa, mapped := c.spec.Space.Lookup(va)
	if !mapped {
		var err error
		if pa, err = c.spec.Space.Translate(va, c.spec.Node); err != nil {
			// The thread stops here; the run fails at the next step
			// boundary (see StepCtx).
			if r := c.m.run; r.fault == nil {
				r.fault = fmt.Errorf("system: thread %d(%s) faulting page %#x at t=%v: %w", c.idx, c.spec.Name, acc.VAddr, now, err)
			}
			return
		}
	}
	if acc.Think > 0 {
		c.pendPA, c.pendWr = pa, acc.Write
		c.m.eng.ScheduleAfter(sim.Time(acc.Think), c)
	} else {
		c.m.nodes[c.spec.Node].cc.CoreAccess(now, pa, acc.Write, &c.stepH)
	}
}

// RunResult carries one run's outputs.
type RunResult struct {
	// Time is the completion time of the slowest thread (the paper's
	// region-of-interest runtime).
	Time sim.Time
	// PerThreadTime holds each thread's completion time.
	PerThreadTime []sim.Time
	// Accesses is the total demand accesses issued.
	Accesses uint64
	// Events is the number of simulation events executed.
	Events uint64

	Dir  []core.DirStats
	PF   []core.PFStats
	Hier []cache.HierStats
	Ctrl []coherence.CtrlStats
	DRAM []dram.Stats
	NoC  noc.Stats

	Energy energy.Breakdown
}

// Run executes the given threads to completion and returns the collected
// statistics. It returns an error when the event budget is exceeded, a
// page fault finds memory exhausted or a post-run invariant fails. It
// is a loop over the stepwise Start/StepCtx/Finish API, which external
// drivers use directly when they need cancellation or safe event
// boundaries between windows (periodic checkpointing, preemption).
func (m *Machine) Run(threads []ThreadSpec) (*RunResult, error) {
	if err := m.Start(threads); err != nil {
		return nil, err
	}
	for {
		done, err := m.StepCtx(context.Background(), 0)
		if err != nil {
			return nil, err
		}
		if done {
			return m.Finish()
		}
	}
}

// Start validates the thread set and schedules the run's first phase
// (warmup when any thread has a warmup stream, otherwise the measured
// region directly). Drive the run with StepCtx; collect with Finish.
func (m *Machine) Start(threads []ThreadSpec) error {
	if m.run != nil && m.run.phase != phaseDone {
		return fmt.Errorf("system: Start while a run is active")
	}
	if len(threads) == 0 {
		return fmt.Errorf("system: no threads to run")
	}
	for _, t := range threads {
		if int(t.Node) < 0 || int(t.Node) >= m.cfg.Nodes {
			return fmt.Errorf("system: thread pinned to invalid node %d", t.Node)
		}
		if t.Stream == nil || t.Space == nil {
			return fmt.Errorf("system: thread needs a stream and an address space")
		}
	}
	m.run = &runState{threads: threads}
	m.reserveLines()
	// Warmup phase: replay initialisation streams, then reset statistics
	// (cache, directory and network state carries over).
	anyWarm := false
	for _, t := range threads {
		if t.Warmup != nil {
			anyWarm = true
			break
		}
	}
	if !anyWarm {
		m.beginROI()
		return nil
	}
	m.run.phase = phaseWarmup
	m.cpus = m.cpus[:0]
	for i, t := range threads {
		if t.Warmup == nil {
			continue
		}
		w := t
		w.Stream = t.Warmup
		c := newCPU(m, i, w)
		m.cpus = append(m.cpus, c)
		m.eng.Schedule(m.eng.Now()+sim.Time(i)*100*sim.Picosecond, &c.stepH)
	}
	return nil
}

// reserveLines sizes every directory's page array for the frames its
// home has handed out so far: the pre-placed footprint, which the run
// will touch.
func (m *Machine) reserveLines() {
	for _, n := range m.nodes {
		n.dir.Reserve(m.phys.FramesTouched(n.id))
	}
}

// beginROI opens the measured region: fresh cpus for every thread,
// starts staggered by 100 ps per thread to break lockstep symmetry.
func (m *Machine) beginROI() {
	r := m.run
	r.roiStart = m.eng.Now()
	r.phase = phaseROI
	r.phaseFired = 0
	m.cpus = m.cpus[:0]
	for i, t := range r.threads {
		c := newCPU(m, i, t)
		m.cpus = append(m.cpus, c)
		m.eng.Schedule(r.roiStart+sim.Time(i)*100*sim.Picosecond, &c.stepH)
	}
}

// StepCtx advances the run by at most window events (0 = no window
// bound; the per-phase MaxEvents budget still applies) and reports
// whether the run has completed. A window boundary is a safe event
// boundary: no event is mid-dispatch, so the machine may be
// checkpointed (Snapshot) before the next StepCtx. On cancellation the
// statistics collected so far remain retrievable via Collect.
func (m *Machine) StepCtx(ctx context.Context, window uint64) (bool, error) {
	r := m.run
	if r == nil || r.phase == 0 {
		return false, fmt.Errorf("system: Step without Start")
	}
	if r.phase == phaseDone {
		return true, nil
	}
	limit := window
	if m.cfg.MaxEvents > 0 {
		remaining := uint64(0)
		if r.phaseFired < m.cfg.MaxEvents {
			remaining = m.cfg.MaxEvents - r.phaseFired
		}
		if limit == 0 || limit > remaining {
			limit = remaining
		}
	}
	fired, cerr := m.eng.RunCtx(ctx, limit)
	r.phaseFired += fired
	if r.fault != nil {
		return false, r.fault
	}
	if cerr != nil {
		r.cancelled = true
		if r.phase == phaseWarmup {
			// Cancelled during warmup: no measured region exists yet, so
			// the partial result is empty-but-well-formed (zero times,
			// the warmup's component counters).
			m.roiStart = m.eng.Now()
			return false, fmt.Errorf("system: cancelled during warmup at t=%v: %w", m.eng.Now(), cerr)
		}
		m.roiStart = r.roiStart
		return false, fmt.Errorf("system: cancelled at t=%v with %d threads in flight: %w",
			m.eng.Now(), len(m.cpus), cerr)
	}
	if m.eng.Pending() == 0 {
		if r.phase == phaseWarmup {
			for _, c := range m.cpus {
				if !c.done {
					return false, fmt.Errorf("system: warmup thread %d(%s) did not finish", c.idx, c.spec.Name)
				}
			}
			m.resetStats()
			m.beginROI()
			return false, nil
		}
		for _, c := range m.cpus {
			if !c.done {
				return false, fmt.Errorf("system: thread %d(%s) did not finish (deadlock?)", c.idx, c.spec.Name)
			}
		}
		m.roiStart = r.roiStart
		r.phase = phaseDone
		return true, nil
	}
	if m.cfg.MaxEvents > 0 && r.phaseFired >= m.cfg.MaxEvents {
		if r.phase == phaseWarmup {
			return false, fmt.Errorf("system: event budget exhausted during warmup at t=%v", m.eng.Now())
		}
		return false, fmt.Errorf("system: event budget %d exhausted at t=%v (possible deadlock)", m.cfg.MaxEvents, m.eng.Now())
	}
	return false, nil
}

// Finish collects the completed run's statistics and applies the final
// invariant check (when enabled).
func (m *Machine) Finish() (*RunResult, error) {
	res := m.Collect()
	if m.check != nil {
		if err := m.check.finalCheck(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// resetStats zeroes every component's counters at the warmup/measurement
// boundary; protocol and cache state is preserved.
func (m *Machine) resetStats() {
	for _, n := range m.nodes {
		n.cc.ResetStats()
		n.dir.ResetStats()
		n.dram.ResetStats()
	}
	m.mesh.ResetStats()
}

// Collect returns the statistics gathered so far. It is meaningful
// after the run completes or after a cancelled StepCtx (which fixes the
// measured-region origin for partial results); external drivers use it
// to report partial progress.
func (m *Machine) Collect() *RunResult {
	res := &RunResult{Events: m.eng.Fired()}
	for _, c := range m.cpus {
		res.Accesses += c.issued
		// A thread still in flight (cancelled run) has no completion
		// timestamp; clamp it to the abort instant. A thread that
		// finished before the measured region began (cancellation during
		// warmup, where roiStart is the abort instant) clamps to zero.
		// Either way partial results stay well-formed: monotone,
		// non-negative times.
		end := c.finished
		if !c.done {
			end = m.eng.Now()
		}
		if end < m.roiStart {
			end = m.roiStart
		}
		res.PerThreadTime = append(res.PerThreadTime, end-m.roiStart)
		if end-m.roiStart > res.Time {
			res.Time = end - m.roiStart
		}
	}
	for _, n := range m.nodes {
		res.Dir = append(res.Dir, n.dir.Stats())
		res.PF = append(res.PF, n.dir.PF().Stats())
		res.Hier = append(res.Hier, n.hier.Stats())
		res.Ctrl = append(res.Ctrl, n.cc.Stats())
		res.DRAM = append(res.DRAM, n.dram.Stats())
	}
	res.NoC = m.mesh.Stats()
	res.Energy = energy.Compute(res.NoC, res.PF, res.DRAM, energy.Default32nm())
	return res
}

// Totals aggregates commonly used sums across nodes.
type Totals struct {
	PFEvictions     uint64
	PFAllocs        uint64
	NoCBytes        uint64
	NoCMessages     uint64
	L2Misses        uint64
	LocalRequests   uint64
	RemoteRequests  uint64
	EvictionMsgs    uint64
	EvictionProbes  uint64
	EvictionHits    uint64
	Invalidations   uint64
	LocalProbes     uint64
	ProbesHidden    uint64
	UntrackedGrants uint64
	UncachedGrants  uint64
	DRAMReads       uint64
	DRAMWrites      uint64
}

// Totals computes cross-node aggregates of a result.
func (r *RunResult) Totals() Totals {
	var t Totals
	for i := range r.Dir {
		t.PFEvictions += r.PF[i].Evictions
		t.PFAllocs += r.PF[i].Allocs
		t.L2Misses += r.Hier[i].Misses
		t.LocalRequests += r.Dir[i].LocalRequests
		t.RemoteRequests += r.Dir[i].RemoteRequests
		t.EvictionMsgs += r.Dir[i].EvictionMsgs
		t.EvictionProbes += r.Dir[i].EvictionProbes
		t.EvictionHits += r.Dir[i].EvictionProbeHits
		t.Invalidations += r.Hier[i].ProbeHits
		t.LocalProbes += r.Dir[i].LocalProbes
		t.ProbesHidden += r.Dir[i].LocalProbesHidden
		t.UntrackedGrants += r.Dir[i].UntrackedGrants
		t.UncachedGrants += r.Dir[i].UncachedGrants
		t.DRAMReads += r.DRAM[i].Reads
		t.DRAMWrites += r.DRAM[i].Writes
	}
	t.NoCBytes = r.NoC.Bytes
	t.NoCMessages = r.NoC.Messages
	return t
}
