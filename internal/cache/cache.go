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

// Line is one cache line's bookkeeping. The three words come first and
// the one-byte fields share the last, so a line packs into 32 bytes (two
// per 64-byte host cache line for the set scans of Peek and Insert).
type Line struct {
	// Addr is the line-aligned physical address (the full tag).
	Addr mem.PAddr
	// Version is the line's data version (a global store counter carried
	// by data messages), used to verify the data-value invariant. Not a
	// hardware field.
	Version uint64
	lru     uint64
	// State is the MOESI state.
	State State
	// Untracked marks an ALLARM line cached without a probe-filter entry.
	// Real hardware has no such bit — ALLARM is stateless — it exists here
	// only for statistics and invariant checking.
	Untracked bool
	valid     bool
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
type Cache struct {
	name  string
	sets  int
	ways  int
	lines []Line // sets × ways, row-major
	tick  uint64
	stats Stats
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
	return &Cache{
		name:  name,
		sets:  sets,
		ways:  ways,
		lines: make([]Line, sets*ways),
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// CapacityBytes returns the data capacity.
func (c *Cache) CapacityBytes() int { return c.sets * c.ways * mem.LineBytes }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex returns the set index for a line address.
func (c *Cache) SetIndex(lineAddr mem.PAddr) int {
	return int(uint64(lineAddr)/mem.LineBytes) & (c.sets - 1)
}

func (c *Cache) set(lineAddr mem.PAddr) []Line {
	i := c.SetIndex(lineAddr) * c.ways
	return c.lines[i : i+c.ways]
}

// Lookup returns the line holding lineAddr, updating LRU, or nil on miss.
// It does not count a hit/miss: hit accounting belongs to the hierarchy,
// which knows whether the access ultimately hit.
func (c *Cache) Lookup(lineAddr mem.PAddr) *Line {
	lineAddr = mem.LineOf(lineAddr)
	for i := range c.set(lineAddr) {
		l := &c.set(lineAddr)[i]
		if l.valid && l.Addr == lineAddr {
			c.tick++
			l.lru = c.tick
			return l
		}
	}
	return nil
}

// Peek returns the line holding lineAddr without touching LRU state, or
// nil. Probes use Peek so that coherence activity does not perturb
// replacement decisions.
func (c *Cache) Peek(lineAddr mem.PAddr) *Line {
	lineAddr = mem.LineOf(lineAddr)
	for i := range c.set(lineAddr) {
		l := &c.set(lineAddr)[i]
		if l.valid && l.Addr == lineAddr {
			return l
		}
	}
	return nil
}

// Insert places a line (which must not already be present) and returns the
// evicted victim, if any. The caller is responsible for the victim's
// writeback/notification flow.
func (c *Cache) Insert(line Line) (victim Line, evicted bool) {
	lineAddr := mem.LineOf(line.Addr)
	if c.Peek(lineAddr) != nil {
		panic(fmt.Sprintf("cache %s: Insert of already-present line %#x", c.name, uint64(lineAddr)))
	}
	if !line.State.Valid() {
		panic(fmt.Sprintf("cache %s: Insert of invalid-state line", c.name))
	}
	set := c.set(lineAddr)
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[vi].lru {
				vi = i
			}
		}
		victim = set[vi]
		evicted = true
		c.stats.Evictions++
		if victim.State.Dirty() {
			c.stats.EvictionsDirty++
		}
	}
	c.tick++
	line.Addr = lineAddr
	line.valid = true
	line.lru = c.tick
	set[vi] = line
	c.stats.Fills++
	return victim, evicted
}

// Remove invalidates lineAddr and returns the line it held.
// ok is false when the line was not present.
func (c *Cache) Remove(lineAddr mem.PAddr) (Line, bool) {
	lineAddr = mem.LineOf(lineAddr)
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].Addr == lineAddr {
			l := set[i]
			set[i] = Line{}
			return l, true
		}
	}
	return Line{}, false
}

// CountValid returns the number of valid lines (O(capacity); test helper).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line (test/invariant helper).
func (c *Cache) ForEachValid(fn func(Line)) {
	for i := range c.lines {
		if c.lines[i].valid {
			fn(c.lines[i])
		}
	}
}

func (c *Cache) noteInvalidation() { c.stats.Invalidations++ }

// ResetStats zeroes the counters without touching cache contents
// (measurement begins after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }
