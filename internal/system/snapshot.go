package system

import (
	"fmt"
	"io"
	"slices"

	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/core"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Machine checkpointing (gem5-style): Snapshot serializes the complete
// architectural and microarchitectural state of a running simulation —
// the event queue, every controller, every cache line, the page tables
// and the workload cursors — such that Restore into a freshly built
// identical machine continues the run bit-identically to one that was
// never interrupted.
//
// Event handlers cannot be serialized as code, so the pending events
// are encoded, in the "heap" section and in the engine's canonical
// (time, seq) order, as (time, seq, tag, payload) records where the tag
// names one of the five handler shapes a running machine schedules:
//
//	hCPUStep  — a cpu's "issue next access" record (payload: cpu index)
//	hCPUPend  — a cpu's think-delay pend (payload: cpu index; the pended
//	            address/write bit live in the cpu state)
//	hDelivery — a message crossing the NoC (payload: the message)
//	hSend     — a message in a cache controller's deferred send
//	            (payload: node + message)
//	hDir      — a directory event (payload: node + kind + binding)
//
// Workload cursors are restored by skip-replay: the caller rebuilds each
// thread's stream exactly as the original run did (streams are
// deterministic functions of the job spec), and Restore discards as many
// accesses as the checkpointed cpu had issued. Address-space state is
// restored wholesale afterwards, so replayed translations have no
// side effects to worry about.
//
// Snapshots are only taken at StepCtx window boundaries during the
// measured region (phaseROI): no event is mid-dispatch, warmup
// bookkeeping is gone, and statistics since the reset are part of the
// captured state.

// Handler tags in the encoded event queue.
const (
	hCPUStep uint8 = iota + 1
	hCPUPend
	hDelivery
	hSend
	hDir
)

// CanSnapshot reports whether the machine is at a snapshottable point:
// a stepwise run is in its measured region, the invariant checker is
// off (its shadow state is not serializable), and every pending event
// is a registered handler record (no ad-hoc closures).
func (m *Machine) CanSnapshot() bool {
	if m.run == nil || m.run.phase != phaseROI || m.check != nil {
		return false
	}
	ok := true
	m.eng.ForEachPending(func(at sim.Time, seq uint64, h sim.Handler) {
		if !m.knownHandler(h) {
			ok = false
		}
	})
	return ok
}

func (m *Machine) knownHandler(h sim.Handler) bool {
	switch h.(type) {
	case *cpuStep, *cpu, *coherence.Msg:
		return true
	}
	if _, ok := core.DirEventOwner(h); ok {
		return true
	}
	return false
}

// Snapshot writes a checkpoint of the running machine to w. The meta
// string travels in the checkpoint header (callers put a job
// fingerprint there and verify it before restoring). The machine is
// not modified; the run continues with another StepCtx.
func (m *Machine) Snapshot(w io.Writer, meta string) error {
	r := m.run
	if r == nil || r.phase != phaseROI {
		return fmt.Errorf("system: snapshot outside the measured region")
	}
	if m.check != nil {
		return fmt.Errorf("system: snapshot with the invariant checker enabled")
	}

	e := checkpoint.NewEncoder(meta)
	e.Grow(m.snapBytes)
	e.Section("machine")
	e.Len(m.cfg.Nodes)

	e.Section("engine")
	e.I64(int64(m.eng.Now()))
	e.U64(m.eng.Seq())
	e.U64(m.eng.Fired())

	e.Section("run")
	e.U64(r.phaseFired)
	e.I64(int64(r.roiStart))

	e.Section("cpus")
	e.Len(len(m.cpus))
	for _, c := range m.cpus {
		e.U64(c.issued)
		e.Bool(c.done)
		e.I64(int64(c.finished))
		e.U64(uint64(c.pendPA))
		e.Bool(c.pendWr)
	}

	m.phys.EncodeState(e)
	e.Len(len(m.spaces))
	for _, s := range m.spaces {
		s.EncodeState(e)
	}
	m.mesh.EncodeState(e)

	for _, n := range m.nodes {
		if err := n.cc.EncodeState(e, m.encodeHandler); err != nil {
			return err
		}
		if err := n.dir.EncodeState(e); err != nil {
			return err
		}
		n.dram.EncodeState(e)
	}

	e.Section("heap")
	e.Len(m.eng.Pending())
	var encErr error
	m.eng.ForEachPending(func(at sim.Time, seq uint64, h sim.Handler) {
		if encErr != nil {
			return
		}
		e.I64(int64(at))
		e.U64(seq)
		encErr = m.encodeHandler(e, h)
	})
	if encErr != nil {
		return encErr
	}
	m.snapBytes = e.Size()
	return e.Close(w)
}

// encodeHandler writes one handler record's tag and payload.
func (m *Machine) encodeHandler(e *checkpoint.Encoder, h sim.Handler) error {
	switch v := h.(type) {
	case *cpuStep:
		e.U8(hCPUStep)
		e.U32(uint32(v.c.idx))
		return nil
	case *cpu:
		e.U8(hCPUPend)
		e.U32(uint32(v.idx))
		return nil
	case *coherence.Msg:
		if node, ok := coherence.DeferredSender(v); ok {
			e.U8(hSend)
			e.I64(int64(node))
		} else {
			e.U8(hDelivery)
		}
		coherence.EncodeMsg(e, v)
		return nil
	}
	if node, ok := core.DirEventOwner(h); ok {
		e.U8(hDir)
		e.I64(int64(node))
		m.nodes[node].dir.EncodeEvent(e, h)
		return nil
	}
	if h == nil {
		return fmt.Errorf("system: cannot snapshot a closure event (use typed handlers)")
	}
	return fmt.Errorf("system: cannot snapshot handler type %T", h)
}

// decodeHandler reads one handler record and resolves it against the
// restored machine. Must run after cpus and per-node state are in
// place (directory events bind to the restored transaction tables).
func (m *Machine) decodeHandler(d *checkpoint.Decoder) (sim.Handler, error) {
	tag := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case hCPUStep, hCPUPend:
		idx := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(m.cpus) {
			return nil, fmt.Errorf("system: checkpoint references cpu %d of %d", idx, len(m.cpus))
		}
		if tag == hCPUStep {
			return &m.cpus[idx].stepH, nil
		}
		return m.cpus[idx], nil
	case hDelivery:
		return m.decodeMsg(d, nil)
	case hSend, hDir:
		node := int(d.I64())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if node < 0 || node >= len(m.nodes) {
			return nil, fmt.Errorf("system: checkpoint references node %d of %d", node, len(m.nodes))
		}
		if tag == hSend {
			return m.decodeMsg(d, m.nodes[node].cc.Outbox())
		}
		return m.nodes[node].dir.DecodeEvent(d)
	default:
		return nil, fmt.Errorf("system: unknown handler tag %d", tag)
	}
}

// decodeMsg reads a scheduled message bound for rx, or, when rx is nil,
// crossing the network to the controller it is addressed to.
func (m *Machine) decodeMsg(d *checkpoint.Decoder, rx coherence.Receiver) (sim.Handler, error) {
	msg := coherence.DecodeMsg(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if msg == nil {
		return nil, fmt.Errorf("system: pending event without a message")
	}
	if int(msg.Src) < 0 || int(msg.Src) >= len(m.nodes) || int(msg.Dst) < 0 || int(msg.Dst) >= len(m.nodes) {
		return nil, fmt.Errorf("system: pending message %d→%d between invalid nodes", msg.Src, msg.Dst)
	}
	if rx == nil {
		rx = m.receiver(msg)
	}
	return msg.To(rx), nil
}

// Restore loads a checkpoint into a freshly built machine and resumes
// the run it captured. The machine must have been constructed with the
// same Config the checkpoint was taken under (invariant checker off),
// with the same address spaces created in the same order, and threads
// must carry freshly rebuilt streams identical to the original run's
// (Restore fast-forwards each stream past the accesses its cpu had
// already issued). It returns the checkpoint's meta string; callers
// verify it against the expected job fingerprint and discard the
// machine on mismatch. After a successful Restore, drive the run with
// StepCtx/Finish exactly as if Start had been called.
func (m *Machine) Restore(r io.Reader, threads []ThreadSpec) (string, error) {
	if m.run != nil {
		return "", fmt.Errorf("system: restore into a machine with an active run")
	}
	if m.check != nil {
		return "", fmt.Errorf("system: restore with the invariant checker enabled")
	}
	if m.eng.Pending() != 0 || m.eng.Fired() != 0 {
		return "", fmt.Errorf("system: restore into a used machine")
	}

	d, err := checkpoint.NewDecoder(r)
	if err != nil {
		return "", err
	}
	meta := d.Meta()

	d.Expect("machine")
	nodes := d.Len(m.cfg.Nodes)
	if err := d.Err(); err != nil {
		return meta, err
	}
	if nodes != m.cfg.Nodes {
		return meta, fmt.Errorf("system: checkpoint has %d nodes, machine has %d", nodes, m.cfg.Nodes)
	}

	d.Expect("engine")
	now := sim.Time(d.I64())
	seq := d.U64()
	fired := d.U64()

	d.Expect("run")
	phaseFired := d.U64()
	roiStart := sim.Time(d.I64())

	d.Expect("cpus")
	ncpus := d.Len(len(threads))
	if err := d.Err(); err != nil {
		return meta, err
	}
	if ncpus != len(threads) {
		return meta, fmt.Errorf("system: checkpoint has %d threads, caller supplied %d", ncpus, len(threads))
	}
	for _, t := range threads {
		if int(t.Node) < 0 || int(t.Node) >= m.cfg.Nodes {
			return meta, fmt.Errorf("system: thread pinned to invalid node %d", t.Node)
		}
		if t.Stream == nil || t.Space == nil {
			return meta, fmt.Errorf("system: thread needs a stream and an address space")
		}
	}
	m.cpus = m.cpus[:0]
	for i, t := range threads {
		c := newCPU(m, i, t)
		c.issued = d.U64()
		c.done = d.Bool()
		c.finished = sim.Time(d.I64())
		c.pendPA = mem.PAddr(d.U64())
		c.pendWr = d.Bool()
		if err := d.Err(); err != nil {
			return meta, err
		}
		// Skip-replay: advance the fresh stream past everything this
		// cpu had already issued. Streams are deterministic, so the
		// cursor lands exactly where the snapshot left it.
		for j := uint64(0); j < c.issued; j++ {
			if _, ok := c.spec.Stream.Next(); !ok {
				return meta, fmt.Errorf("system: thread %d stream exhausted at %d of %d checkpointed accesses (stream mismatch?)", i, j, c.issued)
			}
		}
		m.cpus = append(m.cpus, c)
	}

	if err := m.phys.DecodeState(d); err != nil {
		return meta, err
	}
	nspaces := d.Len(len(m.spaces))
	if err := d.Err(); err != nil {
		return meta, err
	}
	if nspaces != len(m.spaces) {
		return meta, fmt.Errorf("system: checkpoint has %d address spaces, machine has %d", nspaces, len(m.spaces))
	}
	// The spaces claim distinct frames, each handed out by its node, so
	// each node maps at most its touched frames, all of which are live;
	// equal totals then mean every node maps exactly FramesTouched
	// frames, each by one page.
	var mapped, live uint64
	for _, s := range m.spaces {
		if err := s.DecodeState(d); err != nil {
			return meta, err
		}
		mapped += uint64(s.MappedPages())
	}
	for _, n := range m.nodes {
		live += m.phys.FramesTouched(n.id)
	}
	if mapped != live {
		return meta, fmt.Errorf("system: checkpoint maps %d pages over %d live frames", mapped, live)
	}
	m.reserveLines()
	if err := m.mesh.DecodeState(d); err != nil {
		return meta, err
	}

	for _, n := range m.nodes {
		if err := n.cc.DecodeState(d, m.decodeHandler); err != nil {
			return meta, err
		}
		if err := n.dir.DecodeState(d); err != nil {
			return meta, err
		}
		if err := n.dram.DecodeState(d); err != nil {
			return meta, err
		}
	}

	// The clock must be set before the queue is refilled (RestorePending
	// rejects events in the past), and the queue after every controller
	// (directory events bind to restored transactions). Events may come
	// in any order: older builds wrote them in their heap's array order.
	if err := m.eng.RestoreClock(now, seq, fired); err != nil {
		return meta, err
	}
	d.Expect("heap")
	pending := d.Len(maxHeapEvents)
	if err := d.Err(); err != nil {
		return meta, err
	}
	var seqs []uint64
	for i := 0; i < pending; i++ {
		at := sim.Time(d.I64())
		sq := d.U64()
		if err := d.Err(); err != nil {
			return meta, err
		}
		h, err := m.decodeHandler(d)
		if err != nil {
			return meta, err
		}
		if err := m.eng.RestorePending(at, sq, h); err != nil {
			return meta, err
		}
		seqs = append(seqs, sq)
	}
	if err := d.Err(); err != nil {
		return meta, err
	}
	// A live engine gives every pending event its own seq; two events
	// sharing one would leave their pop order to the queue's layout.
	slices.Sort(seqs)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] == seqs[i-1] {
			return meta, fmt.Errorf("system: checkpoint repeats event seq %d", seqs[i])
		}
	}
	if rem := d.Remaining(); rem != 0 {
		return meta, fmt.Errorf("system: %d bytes of unread checkpoint payload", rem)
	}

	m.run = &runState{
		threads:    threads,
		phase:      phaseROI,
		phaseFired: phaseFired,
		roiStart:   roiStart,
	}
	return meta, nil
}

// maxHeapEvents bounds the decoded event count against corrupt
// checkpoints; a live machine's queue holds at most a few events per
// node.
const maxHeapEvents = 1 << 24
