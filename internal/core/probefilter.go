// Package core implements the paper's contribution: the sparse directory
// (probe filter) and its allocation policies — the conventional
// allocate-on-any-miss baseline and ALLARM's allocate-on-remote-miss —
// together with the home directory controller that drives the
// Hammer-style coherence flows.
//
// Terminology follows the paper: "probe filter" (PF) is AMD's name for a
// sparse directory that is inclusive of all cached lines it tracks; a PF
// eviction therefore back-invalidates the line from every cache.
package core

import (
	"fmt"

	"allarm/internal/mem"
)

// EntryState is the tracking state of one probe-filter entry.
//
// The Hammer protocol does not record sharer sets, so the directory only
// distinguishes "one owner, no sharers" (EM), "one owner plus unknown
// sharers" (O), and "unknown sharers, no owner" (S). Invalidations for O
// and S entries must broadcast.
type EntryState uint8

const (
	// EntryEM: the owner holds the line in E or M; no other copies exist.
	EntryEM EntryState = iota
	// EntryO: the owner holds the line in O (dirty); other nodes may hold
	// S copies (untracked).
	EntryO
	// EntryS: one or more nodes may hold S copies; DRAM is current.
	EntryS
)

// String implements fmt.Stringer.
func (s EntryState) String() string {
	switch s {
	case EntryEM:
		return "EM"
	case EntryO:
		return "O"
	case EntryS:
		return "S"
	default:
		return fmt.Sprintf("EntryState(%d)", uint8(s))
	}
}

// Entry is one probe-filter entry. Wide fields come first so an entry
// packs into 24 bytes: a 4-way set that Peek or victim selection scans
// spans 96 bytes instead of 128.
type Entry struct {
	Addr mem.PAddr
	lru  uint64
	// Owner is the owning node for EM and O entries (undefined for S).
	Owner mem.NodeID
	State EntryState
	valid bool
}

// PFStats counts probe-filter array events; the energy model multiplies
// them by per-event energies.
type PFStats struct {
	Reads     uint64 // tag lookups (every request consults the PF)
	Writes    uint64 // entry installs, state updates, deallocations
	Hits      uint64
	Misses    uint64
	Allocs    uint64
	Deallocs  uint64 // explicit frees by PutM/PutE
	Evictions uint64 // capacity-induced replacements (the paper's Fig 3b metric)
}

// ProbeFilter is the set-associative sparse-directory tag store of one
// home node.
type ProbeFilter struct {
	sets    int
	ways    int
	entries []Entry
	tick    uint64
	stats   PFStats
}

// NewProbeFilter builds a probe filter that tracks coverageBytes of cached
// data (Table I: 512 KiB, i.e. 2× one L2) with the given associativity.
// The entry count is coverageBytes / LineBytes and the set count must come
// out a power of two.
func NewProbeFilter(coverageBytes, ways int) *ProbeFilter {
	if coverageBytes <= 0 || ways <= 0 {
		panic("core: probe filter capacity and ways must be positive")
	}
	n := coverageBytes / mem.LineBytes
	if n*mem.LineBytes != coverageBytes || n%ways != 0 {
		panic("core: probe filter coverage must be a multiple of ways*LineBytes")
	}
	sets := n / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: probe filter set count %d is not a power of two", sets))
	}
	return &ProbeFilter{sets: sets, ways: ways, entries: make([]Entry, n)}
}

// Entries returns the total entry capacity.
func (pf *ProbeFilter) Entries() int { return pf.sets * pf.ways }

// CoverageBytes returns the bytes of cached data the filter can track.
func (pf *ProbeFilter) CoverageBytes() int { return pf.Entries() * mem.LineBytes }

// Ways returns the associativity.
func (pf *ProbeFilter) Ways() int { return pf.ways }

// Stats returns a copy of the accumulated statistics.
func (pf *ProbeFilter) Stats() PFStats { return pf.stats }

func (pf *ProbeFilter) setIndex(addr mem.PAddr) int {
	return int(uint64(addr)/mem.LineBytes) & (pf.sets - 1)
}

func (pf *ProbeFilter) set(addr mem.PAddr) []Entry {
	i := pf.setIndex(addr) * pf.ways
	return pf.entries[i : i+pf.ways]
}

// Lookup consults the filter for addr (counting a tag read, since the PF
// is consulted on every incoming request regardless of policy) and
// returns the entry or nil. Hits refresh LRU.
func (pf *ProbeFilter) Lookup(addr mem.PAddr) *Entry {
	addr = mem.LineOf(addr)
	pf.stats.Reads++
	set := pf.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			pf.tick++
			set[i].lru = pf.tick
			pf.stats.Hits++
			return &set[i]
		}
	}
	pf.stats.Misses++
	return nil
}

// Peek returns the entry for addr without statistics or LRU effects.
func (pf *ProbeFilter) Peek(addr mem.PAddr) *Entry {
	addr = mem.LineOf(addr)
	set := pf.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Update rewrites the state/owner of an existing entry, counting an array
// write. It panics if the entry is absent (callers look up first).
func (pf *ProbeFilter) Update(addr mem.PAddr, st EntryState, owner mem.NodeID) {
	e := pf.Peek(addr)
	if e == nil {
		panic(fmt.Sprintf("core: Update of absent entry %#x", uint64(addr)))
	}
	e.State = st
	e.Owner = owner
	pf.stats.Writes++
}

// Alloc installs an entry for addr. If the set is full it evicts the
// least-recently-used entry whose line is not busy (per busy); the victim
// must be back-invalidated by the caller. ok is false when every way in
// the set holds a busy line, in which case nothing changes and the caller
// retries later.
func (pf *ProbeFilter) Alloc(addr mem.PAddr, st EntryState, owner mem.NodeID, busy func(mem.PAddr) bool) (victim Entry, evicted, ok bool) {
	addr = mem.LineOf(addr)
	if pf.Peek(addr) != nil {
		panic(fmt.Sprintf("core: Alloc of already-present entry %#x", uint64(addr)))
	}
	set := pf.set(addr)
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		for i := range set {
			if busy != nil && busy(set[i].Addr) {
				continue
			}
			if vi < 0 || set[i].lru < set[vi].lru {
				vi = i
			}
		}
		if vi < 0 {
			return Entry{}, false, false
		}
		victim = set[vi]
		evicted = true
		pf.stats.Evictions++
		// A replacement reads out the victim's tag and state before the
		// new entry is written (the paper's dynamic-energy argument for
		// reducing evictions, §II-B).
		pf.stats.Reads++
	}
	pf.tick++
	set[vi] = Entry{Addr: addr, State: st, Owner: owner, valid: true, lru: pf.tick}
	pf.stats.Writes++
	pf.stats.Allocs++
	return victim, evicted, true
}

// Remove deallocates the entry for addr (PutM/PutE flows), counting an
// array write. It reports whether an entry was present.
func (pf *ProbeFilter) Remove(addr mem.PAddr) bool {
	addr = mem.LineOf(addr)
	set := pf.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			set[i] = Entry{}
			pf.stats.Writes++
			pf.stats.Deallocs++
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid entries (O(capacity); used by
// tests and occupancy diagnostics, not by protocol flows).
func (pf *ProbeFilter) Occupancy() int {
	n := 0
	for i := range pf.entries {
		if pf.entries[i].valid {
			n++
		}
	}
	return n
}

// ResetStats zeroes the counters without touching entries (measurement
// begins after warmup).
func (pf *ProbeFilter) ResetStats() { pf.stats = PFStats{} }

// ForEachValid visits every valid entry (invariant checks).
func (pf *ProbeFilter) ForEachValid(fn func(Entry)) {
	for i := range pf.entries {
		if pf.entries[i].valid {
			fn(pf.entries[i])
		}
	}
}
