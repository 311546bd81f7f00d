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
	"unsafe"

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

// Entry is one probe-filter entry, as Lookup, Peek, Alloc's victim and
// ForEachValid report it. The filter does not store Entries: it keeps
// each way as a tag word, an LRU tick and an owner in parallel arrays
// (see ProbeFilter).
type Entry struct {
	Addr mem.PAddr
	// Owner is the owning node for EM and O entries (undefined for S).
	Owner mem.NodeID
	State EntryState
}

// A tag word holds a way's line address in its high bits and the valid
// bit and EntryState in low bits a 64-byte-aligned address leaves clear.
// An empty way's word is zero. A lookup compares tag&^pfState with
// addr|pfValid: one mask and one compare per way.
const (
	pfState = 3 // bits 0–1: the EntryState
	pfValid = 1 << 2
	pfMeta  = mem.LineBytes - 1
)

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
// home node. Way w of set s lives at index s*ways+w of three parallel
// arrays cut from one allocation: tag words, LRU ticks and owners, 20
// bytes per way.
type ProbeFilter struct {
	sets   int
	ways   int
	tags   []uint64
	lrus   []uint64
	owners []mem.NodeID
	tick   uint64
	stats  PFStats
	// peeked is the copy Peek returns a pointer to.
	peeked Entry
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
	// The owners (4 bytes each) take the backing array's last n/2 words.
	b := make([]uint64, 2*n+(n+1)/2)
	return &ProbeFilter{
		sets:   sets,
		ways:   ways,
		tags:   b[:n:n],
		lrus:   b[n : 2*n : 2*n],
		owners: unsafe.Slice((*mem.NodeID)(unsafe.Pointer(&b[2*n])), n),
	}
}

// Ways returns the associativity.
func (pf *ProbeFilter) Ways() int { return pf.ways }

// Stats returns a copy of the accumulated statistics.
func (pf *ProbeFilter) Stats() PFStats { return pf.stats }

func (pf *ProbeFilter) setIndex(addr mem.PAddr) int {
	return int(uint64(addr)/mem.LineBytes) & (pf.sets - 1)
}

// find returns the index of the way holding the line-aligned addr, or -1,
// without statistics or LRU effects.
func (pf *ProbeFilter) find(addr mem.PAddr) int {
	base := pf.setIndex(addr) * pf.ways
	key := uint64(addr) | pfValid
	for i, t := range pf.tags[base : base+pf.ways] {
		if t&^pfState == key {
			return base + i
		}
	}
	return -1
}

func (pf *ProbeFilter) state(i int) EntryState { return EntryState(pf.tags[i] & pfState) }

func (pf *ProbeFilter) entry(i int) Entry {
	t := pf.tags[i]
	return Entry{Addr: mem.PAddr(t &^ pfMeta), Owner: pf.owners[i], State: EntryState(t & pfState)}
}

// Lookup consults the filter for addr (counting a tag read, since the PF
// is consulted on every incoming request regardless of policy) and
// returns the entry and whether there is one. Hits refresh LRU.
func (pf *ProbeFilter) Lookup(addr mem.PAddr) (Entry, bool) {
	pf.stats.Reads++
	i := pf.find(mem.LineOf(addr))
	if i < 0 {
		pf.stats.Misses++
		return Entry{}, false
	}
	pf.tick++
	pf.lrus[i] = pf.tick
	pf.stats.Hits++
	return pf.entry(i), true
}

// Peek returns the entry for addr without statistics or LRU effects, or
// nil. The pointer is to a copy the filter keeps, which the next Peek
// overwrites; entries change only through the filter's methods.
func (pf *ProbeFilter) Peek(addr mem.PAddr) *Entry {
	i := pf.find(mem.LineOf(addr))
	if i < 0 {
		return nil
	}
	pf.peeked = pf.entry(i)
	return &pf.peeked
}

// update rewrites the state and owner of the entry at index i (from
// find), counting an array write. It panics if the way is empty (callers
// look up first).
func (pf *ProbeFilter) update(i int, st EntryState, owner mem.NodeID) {
	if i < 0 || pf.tags[i]&pfValid == 0 {
		panic(fmt.Sprintf("core: update of an absent entry (way %d)", i))
	}
	pf.tags[i] = pf.tags[i]&^pfState | uint64(st)
	pf.owners[i] = owner
	pf.stats.Writes++
}

// Alloc installs an entry for addr. If the set is full it evicts the
// least-recently-used entry whose line is not busy (per busy); the victim
// must be back-invalidated by the caller. ok is false when every way in
// the set holds a busy line, in which case nothing changes and the caller
// retries later. One pass over the set checks that addr is absent and
// finds the first free way or, failing one, the victim.
func (pf *ProbeFilter) Alloc(addr mem.PAddr, st EntryState, owner mem.NodeID, busy func(mem.PAddr) bool) (victim Entry, evicted, ok bool) {
	addr = mem.LineOf(addr)
	base := pf.setIndex(addr) * pf.ways
	key := uint64(addr) | pfValid
	free, vi := -1, -1
	for i, t := range pf.tags[base : base+pf.ways] {
		switch {
		case t&^pfState == key:
			panic(fmt.Sprintf("core: Alloc of already-present entry %#x", uint64(addr)))
		case t&pfValid == 0:
			if free < 0 {
				free = i
			}
		case free >= 0 || busy != nil && busy(mem.PAddr(t&^pfMeta)):
			// A free way needs no victim; a busy line cannot be one.
		case vi < 0 || pf.lrus[base+i] < pf.lrus[base+vi]:
			vi = i
		}
	}
	at := base + free
	if free < 0 {
		if vi < 0 {
			return Entry{}, false, false
		}
		at = base + vi
		victim = pf.entry(at)
		evicted = true
		pf.stats.Evictions++
		// A replacement reads out the victim's tag and state before the
		// new entry is written (the paper's dynamic-energy argument for
		// reducing evictions, §II-B).
		pf.stats.Reads++
	}
	pf.tick++
	pf.tags[at] = key | uint64(st)
	pf.lrus[at] = pf.tick
	pf.owners[at] = owner
	pf.stats.Writes++
	pf.stats.Allocs++
	return victim, evicted, true
}

// free deallocates the entry at index i (PutM/PutE flows), counting an
// array write. An empty way is all zero, which the checkpoint encoding
// relies on.
func (pf *ProbeFilter) free(i int) {
	pf.tags[i], pf.lrus[i], pf.owners[i] = 0, 0, 0
	pf.stats.Writes++
	pf.stats.Deallocs++
}

// Occupancy returns the number of valid entries (O(capacity); used by
// tests and occupancy diagnostics, not by protocol flows).
func (pf *ProbeFilter) Occupancy() int {
	n := 0
	for _, t := range pf.tags {
		if t&pfValid != 0 {
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
	for i, t := range pf.tags {
		if t&pfValid != 0 {
			fn(pf.entry(i))
		}
	}
}
