package cache

import (
	"fmt"

	"allarm/internal/mem"
)

// AccessOutcome classifies a core access against the private hierarchy.
type AccessOutcome uint8

const (
	// Hit means the access completed in L1 or L2 with no coherence action.
	Hit AccessOutcome = iota
	// UpgradeMiss means a readable copy is present (S or O) but a store
	// needs ownership: issue GetM, no data fill strictly required.
	UpgradeMiss
	// Miss means no usable copy is present: issue GetS or GetM.
	Miss
)

// String implements fmt.Stringer.
func (o AccessOutcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case UpgradeMiss:
		return "upgrade-miss"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("AccessOutcome(%d)", uint8(o))
	}
}

// Victim describes a line evicted from the hierarchy that may need a
// coherence action: PutM (dirty writeback) or PutE (clean-exclusive
// notification, the paper's "already optimized" baseline); shared victims
// are dropped silently because Hammer does not track sharers.
type Victim struct {
	Addr      mem.PAddr
	State     State
	Untracked bool
	Version   uint64
}

// HierStats counts hierarchy-level events.
type HierStats struct {
	Accesses  uint64
	L1Hits    uint64
	L2Hits    uint64 // L1 miss, L2 hit (line swapped up)
	Misses    uint64 // missed both levels (includes upgrade misses)
	Upgrades  uint64
	ProbeHits uint64 // coherence probes that found the line
}

// Hierarchy is one node's private cache hierarchy: an L1 data cache backed
// by an exclusive L2 (a line lives in exactly one of the two levels, the
// organisation in Table I of the paper). A single coherence controller
// fronts the pair, so probes and fills see both levels.
type Hierarchy struct {
	l1    *Cache
	l2    *Cache
	stats HierStats

	// victims is the scratch buffer Access and Fill return their victim
	// lists in, reused across calls so the hot path does not allocate.
	victims []Victim
}

// NewHierarchy builds the private hierarchy with the given capacities and
// associativities.
func NewHierarchy(l1Bytes, l1Ways, l2Bytes, l2Ways int) *Hierarchy {
	return &Hierarchy{
		l1: New("L1D", l1Bytes, l1Ways),
		l2: New("L2", l2Bytes, l2Ways),
	}
}

// L1 exposes the L1 cache (read-only use expected: stats, tests).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the L2 cache (read-only use expected: stats, tests).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Stats returns a copy of hierarchy statistics.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// AccessResult reports how an access resolved against the hierarchy.
type AccessResult struct {
	Outcome AccessOutcome
	// Level is 1 for an L1 hit, 2 for an L2 hit (including upgrade misses
	// that found the line) and 0 for a full miss. It drives hit latency.
	Level int
	// Line is the slot of the line the access found (Hit and
	// UpgradeMiss), valid until the hierarchy next changes. The zero
	// Slot on a Miss.
	Line Slot
	// Victims are lines evicted by an L2→L1 swap that need coherence
	// actions. The slice aliases a scratch buffer that the next Access or
	// Fill call overwrites; consume it before touching the hierarchy
	// again.
	Victims []Victim
}

// Access classifies a load (write=false) or store (write=true) to lineAddr
// and performs all hit-path state updates:
//
//   - L1 hit: LRU update; stores in E silently upgrade to M.
//   - L2 hit: the line is swapped into L1; the L1 victim moves to L2. The
//     swap can evict an L2 victim, returned for coherence handling.
//   - S/O hit on a store: UpgradeMiss (GetM required, line retained).
//   - otherwise: Miss.
//
// On Miss and UpgradeMiss the caller must complete the coherence
// transaction and then call Fill.
func (h *Hierarchy) Access(lineAddr mem.PAddr, write bool) AccessResult {
	lineAddr = mem.LineOf(lineAddr)
	h.stats.Accesses++
	h.victims = h.victims[:0]

	if l := h.l1.Lookup(lineAddr); l.Ok() {
		out := hitPath(l, write)
		h.countHit(out, 1)
		return AccessResult{Outcome: out, Level: 1, Line: l}
	}
	if i := h.l2.find(lineAddr); i >= 0 {
		// Exclusive hierarchy: move the line up to L1, demote the L1
		// victim to L2. The promoted line is then used like an L1 hit.
		l := h.insertL1(h.l2.take(i))
		h.l1.touch(l.i)
		out := hitPath(l, write)
		h.countHit(out, 2)
		return AccessResult{Outcome: out, Level: 2, Line: l, Victims: h.victims}
	}
	h.stats.Misses++
	return AccessResult{Outcome: Miss}
}

func (h *Hierarchy) countHit(out AccessOutcome, level int) {
	if out == Hit {
		if level == 1 {
			h.stats.L1Hits++
		} else {
			h.stats.L2Hits++
		}
	} else {
		h.stats.Misses++
		h.stats.Upgrades++
	}
}

// hitPath applies store-upgrade rules to a present line.
func hitPath(l Slot, write bool) AccessOutcome {
	if !write {
		return Hit
	}
	switch l.State() {
	case Modified:
		return Hit
	case Exclusive:
		l.setState(Modified) // silent E→M upgrade
		return Hit
	case Shared, Owned:
		return UpgradeMiss
	default:
		panic("cache: invalid state on hit path")
	}
}

// insertL1 inserts a line into L1, demoting any L1 victim into L2 and
// appending L2 victims that require coherence actions to the scratch
// buffer. It returns the line's L1 slot.
func (h *Hierarchy) insertL1(line Line) Slot {
	at, v, evicted := h.l1.insert(line)
	if evicted {
		if v2, evicted2 := h.l2.Insert(v); evicted2 {
			if v2.State == Shared {
				// Silent drop; Hammer directories do not track sharers.
			} else {
				h.victims = append(h.victims, Victim{
					Addr: v2.Addr, State: v2.State,
					Untracked: v2.Untracked, Version: v2.Version,
				})
			}
		}
	}
	return Slot{h.l1, at}
}

// Fill completes a miss: the granted line enters L1 with the given state
// and data version. For upgrade grants where the line is still present,
// the state is updated in place. Victims evicted to make room are
// returned; as with Access, the slice aliases a reused scratch buffer.
func (h *Hierarchy) Fill(lineAddr mem.PAddr, st State, untracked bool, version uint64) []Victim {
	return h.FillAt(h.Find(lineAddr), lineAddr, st, untracked, version)
}

// FillAt is Fill for a caller that has already located the line: l must
// be what Find(lineAddr) returned, with no change to the hierarchy since.
func (h *Hierarchy) FillAt(l Slot, lineAddr mem.PAddr, st State, untracked bool, version uint64) []Victim {
	h.victims = h.victims[:0]
	switch l.c {
	case h.l1:
		l.setState(st)
		l.setUntracked(untracked)
		l.SetVersion(version)
		return nil
	case h.l2:
		// Upgrade grant while the line sat in L2: promote to L1.
		moved := h.l2.take(l.i)
		moved.State = st
		moved.Untracked = untracked
		moved.Version = version
		h.insertL1(moved)
		return h.victims
	}
	h.insertL1(Line{Addr: mem.LineOf(lineAddr), State: st, Untracked: untracked, Version: version})
	return h.victims
}

// Find returns the slot holding lineAddr in whichever level holds it, or
// the zero Slot, without LRU side effects.
func (h *Hierarchy) Find(lineAddr mem.PAddr) Slot {
	lineAddr = mem.LineOf(lineAddr)
	if i := h.l1.find(lineAddr); i >= 0 {
		return Slot{h.l1, i}
	}
	return h.l2.slot(h.l2.find(lineAddr))
}

// Invalidate removes the line in slot l from the hierarchy (a coherence
// invalidation), returning the state it held (Invalid for the zero Slot)
// and whether the line's data was dirty.
func (h *Hierarchy) Invalidate(l Slot) (State, bool) {
	if !l.Ok() {
		return Invalid, false
	}
	st := l.c.take(l.i).State
	l.c.noteInvalidation()
	h.stats.ProbeHits++
	return st, st.Dirty()
}

// Downgrade moves the line in slot l to the target shared-side state in
// response to a read probe: M→O, E→S, O and S unchanged. It returns the
// state held before the probe (Invalid for the zero Slot).
func (h *Hierarchy) Downgrade(l Slot) State {
	if !l.Ok() {
		return Invalid
	}
	h.stats.ProbeHits++
	prev := l.State()
	switch prev {
	case Modified:
		l.setState(Owned)
	case Exclusive:
		l.setState(Shared)
	}
	return prev
}

// SetTracked clears the untracked mark on a line after the home directory
// allocates an entry for it (ALLARM remote-miss discovery). No-op when the
// line is absent.
func (h *Hierarchy) SetTracked(lineAddr mem.PAddr) {
	if l := h.Find(lineAddr); l.Ok() {
		l.setUntracked(false)
	}
}

// ResetStats zeroes hierarchy and per-level counters, keeping contents.
func (h *Hierarchy) ResetStats() {
	h.stats = HierStats{}
	h.l1.ResetStats()
	h.l2.ResetStats()
}

// ForEachValid visits every valid line in both levels.
func (h *Hierarchy) ForEachValid(fn func(Line)) {
	h.l1.ForEachValid(fn)
	h.l2.ForEachValid(fn)
}
