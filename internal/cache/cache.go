// Package cache models set-associative caches with MOESI line states and
// the private, exclusive L1/L2 hierarchy of the evaluated system.
//
// The model is structural, not functional: lines carry coherence state and
// bookkeeping, not data bytes. (The system layer separately tracks a
// 64-bit version per line to verify the data-value invariant in tests.)
package cache

import (
	"fmt"

	"allarm/internal/mem"
)

// State is a MOESI cache-line coherence state.
type State uint8

// MOESI states. The Hammer protocol uses all five: O (owned) arises when a
// modified line is shared without a DRAM writeback.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String implements fmt.Stringer (single-letter MOESI names).
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds a readable copy.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state obliges a writeback on eviction.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Writable reports whether a store can hit in this state without a
// coherence transaction.
func (s State) Writable() bool { return s == Modified || s == Exclusive }

// Line is one cache line's bookkeeping, as Insert takes it and victims
// and ForEachValid report it. A cache does not store Lines: it keeps
// each way as a tag word, a version and an LRU tick in parallel arrays
// (see Cache), and lookups hand out a Slot.
type Line struct {
	// Addr is the line-aligned physical address (the full tag).
	Addr mem.PAddr
	// Version is the line's data version (a global store counter carried
	// by data messages), used to verify the data-value invariant. Not a
	// hardware field.
	Version uint64
	// State is the MOESI state.
	State State
	// Untracked marks a line filled by an ALLARM grant without a
	// probe-filter entry. Real hardware has no such bit — ALLARM is
	// stateless — so it is bookkeeping only: set at fill time and never
	// cleared, it may stay set on a home copy that a later remote miss
	// made tracked, and neither the coherence checker's final check nor
	// the put path acts on it.
	Untracked bool
}

// A tag word holds a way's line address in its high bits and, in the six
// low bits a 64-byte-aligned address leaves clear, the way's valid bit,
// untracked mark and MOESI state. An empty way's word is zero.
const (
	tagState     = 7 // bits 0–2: the State
	tagUntracked = 1 << 3
	tagValid     = 1 << 4
	tagMeta      = mem.LineBytes - 1
	// tagFlags are the bits a lookup masks off before comparing a tag
	// with tagKey, so a match is one mask and one compare per way.
	tagFlags = tagState | tagUntracked
)

func tagKey(lineAddr mem.PAddr) uint64 { return uint64(lineAddr) | tagValid }

func makeTag(l Line) uint64 {
	t := uint64(l.Addr) | tagValid | uint64(l.State)
	if l.Untracked {
		t |= tagUntracked
	}
	return t
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Evictions uint64
	// EvictionsDirty counts evictions in M or O (writeback required).
	EvictionsDirty uint64
	// Invalidations counts lines killed by coherence probes (including
	// probe-filter back-invalidations, the paper's key overhead).
	Invalidations uint64
}

// Cache is a single set-associative cache level with true-LRU replacement.
// Way w of set s lives at index s*ways+w of three parallel arrays cut
// from one allocation: tag words (a 4-way set's tags span 32 bytes),
// data versions and LRU ticks, 24 bytes per way.
type Cache struct {
	name  string
	sets  int
	ways  int
	tags  []uint64
	vers  []uint64
	lrus  []uint64
	tick  uint64
	stats Stats
}

// Slot is a handle on one way of one cache, as lookups return it. It
// stays valid until the next Insert or Remove on that cache. The zero
// Slot stands for an absent line and reads as Invalid, version 0.
type Slot struct {
	c *Cache
	i int
}

// Ok reports whether the slot holds a line.
func (s Slot) Ok() bool { return s.c != nil }

// State returns the line's MOESI state (Invalid when absent).
func (s Slot) State() State {
	if s.c == nil {
		return Invalid
	}
	return State(s.c.tags[s.i] & tagState)
}

// Untracked reports the line's ALLARM untracked mark.
func (s Slot) Untracked() bool { return s.c != nil && s.c.tags[s.i]&tagUntracked != 0 }

// Version returns the line's data version (0 when absent).
func (s Slot) Version() uint64 {
	if s.c == nil {
		return 0
	}
	return s.c.vers[s.i]
}

// SetVersion sets the data version of a present line (a store hit).
func (s Slot) SetVersion(v uint64) { s.c.vers[s.i] = v }

// Line returns the line's bookkeeping.
func (s Slot) Line() Line {
	t := s.c.tags[s.i]
	return Line{
		Addr:      mem.PAddr(t &^ tagMeta),
		Version:   s.c.vers[s.i],
		State:     State(t & tagState),
		Untracked: t&tagUntracked != 0,
	}
}

func (s Slot) setState(st State) { s.c.tags[s.i] = s.c.tags[s.i]&^tagState | uint64(st) }

func (s Slot) setUntracked(u bool) {
	s.c.tags[s.i] &^= tagUntracked
	if u {
		s.c.tags[s.i] |= tagUntracked
	}
}

// New builds a cache of capacityBytes with the given associativity.
// capacityBytes must be a positive multiple of ways*LineBytes and the
// resulting set count must be a power of two (hardware indexing).
func New(name string, capacityBytes, ways int) *Cache {
	if ways <= 0 || capacityBytes <= 0 {
		panic("cache: capacity and ways must be positive")
	}
	linesTotal := capacityBytes / mem.LineBytes
	if linesTotal*mem.LineBytes != capacityBytes || linesTotal%ways != 0 {
		panic("cache: capacity must be a multiple of ways*LineBytes")
	}
	sets := linesTotal / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two", name, sets))
	}
	n := linesTotal
	b := make([]uint64, 3*n) // tags, versions, LRU ticks
	return &Cache{
		name: name,
		sets: sets,
		ways: ways,
		tags: b[:n:n],
		vers: b[n : 2*n : 2*n],
		lrus: b[2*n:],
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex returns the set index for a line address.
func (c *Cache) SetIndex(lineAddr mem.PAddr) int {
	return int(uint64(lineAddr)/mem.LineBytes) & (c.sets - 1)
}

// find returns the array index of the way holding lineAddr, or -1.
func (c *Cache) find(lineAddr mem.PAddr) int {
	base := c.SetIndex(lineAddr) * c.ways
	key := tagKey(lineAddr)
	for i, t := range c.tags[base : base+c.ways] {
		if t&^tagFlags == key {
			return base + i
		}
	}
	return -1
}

func (c *Cache) slot(i int) Slot {
	if i < 0 {
		return Slot{}
	}
	return Slot{c, i}
}

// touch makes way i the most recently used.
func (c *Cache) touch(i int) {
	c.tick++
	c.lrus[i] = c.tick
}

// Lookup returns the slot holding lineAddr, updating LRU, or the zero
// Slot on a miss. It does not count a hit/miss: hit accounting belongs to
// the hierarchy, which knows whether the access ultimately hit.
func (c *Cache) Lookup(lineAddr mem.PAddr) Slot {
	i := c.find(mem.LineOf(lineAddr))
	if i >= 0 {
		c.touch(i)
	}
	return c.slot(i)
}

// Insert places a line (which must not already be present) and returns the
// evicted victim, if any. The caller is responsible for the victim's
// writeback/notification flow.
func (c *Cache) Insert(line Line) (victim Line, evicted bool) {
	_, victim, evicted = c.insert(line)
	return victim, evicted
}

// insert is Insert that also returns the index the line went to. One
// pass over the set checks for a duplicate, finds the first free way and
// the least recently used one.
func (c *Cache) insert(line Line) (at int, victim Line, evicted bool) {
	line.Addr = mem.LineOf(line.Addr)
	if !line.State.Valid() {
		panic(fmt.Sprintf("cache %s: Insert of invalid-state line", c.name))
	}
	base := c.SetIndex(line.Addr) * c.ways
	key := tagKey(line.Addr)
	free, lru := -1, -1
	for i, t := range c.tags[base : base+c.ways] {
		switch {
		case t&^tagFlags == key:
			panic(fmt.Sprintf("cache %s: Insert of already-present line %#x", c.name, uint64(line.Addr)))
		case t&tagValid == 0:
			if free < 0 {
				free = i
			}
		case lru < 0 || c.lrus[base+i] < c.lrus[base+lru]:
			lru = i
		}
	}
	at = base + free
	if free < 0 {
		at = base + lru
		victim = Slot{c, at}.Line()
		evicted = true
		c.stats.Evictions++
		if victim.State.Dirty() {
			c.stats.EvictionsDirty++
		}
	}
	c.tags[at] = makeTag(line)
	c.vers[at] = line.Version
	c.touch(at)
	c.stats.Fills++
	return at, victim, evicted
}

// take empties way i and returns the line it held. An empty way is all
// zero, which the checkpoint encoding relies on.
func (c *Cache) take(i int) Line {
	l := Slot{c, i}.Line()
	c.tags[i], c.vers[i], c.lrus[i] = 0, 0, 0
	return l
}

// ForEachValid calls fn for every valid line (test/invariant helper).
func (c *Cache) ForEachValid(fn func(Line)) {
	for i, t := range c.tags {
		if t&tagValid != 0 {
			fn(Slot{c, i}.Line())
		}
	}
}

func (c *Cache) noteInvalidation() { c.stats.Invalidations++ }

// ResetStats zeroes the counters without touching cache contents
// (measurement begins after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }
