package cache

import (
	"fmt"

	"allarm/internal/checkpoint"
	"allarm/internal/mem"
)

// Checkpoint support: a cache's mutable state is every way, in array
// order (LRU ages and valid bits included, so future replacement
// decisions replay identically), the LRU tick and the statistics.
// Geometry (sets, ways) comes from construction and is only verified.
// Each way is written as the record the format has always carried —
// address, state, untracked, version, valid, LRU — and an empty way as
// all zeros.

// EncodeState writes the cache's full mutable state.
func (c *Cache) EncodeState(e *checkpoint.Encoder) {
	e.Section("cache:" + c.name)
	e.U64(c.tick)
	checkpoint.EncodeStruct(e, &c.stats)
	e.Len(len(c.tags))
	for i, t := range c.tags {
		e.U64(t &^ tagMeta)
		e.U8(uint8(t & tagState))
		e.Bool(t&tagUntracked != 0)
		e.U64(c.vers[i])
		e.Bool(t&tagValid != 0)
		e.U64(c.lrus[i])
	}
}

// DecodeState overwrites the cache's mutable state from a checkpoint.
// The cache must have the geometry the checkpoint was taken with. A way
// the cache could not have produced is an error: an empty way with any
// non-zero field, a flag byte other than 0 or 1, an unaligned address, a
// state out of range, a valid way in Invalid, a line outside its set, or
// one line in two ways of a set.
func (c *Cache) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("cache:" + c.name)
	c.tick = d.U64()
	checkpoint.DecodeStruct(d, &c.stats)
	n := d.Len(len(c.tags))
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(c.tags) {
		return fmt.Errorf("cache %s: checkpoint has %d lines, cache has %d", c.name, n, len(c.tags))
	}
	for i := range c.tags {
		addr, st, untracked := d.U64(), d.U8(), d.U8()
		ver, valid, lru := d.U64(), d.U8(), d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if err := c.restoreWay(i, addr, st, untracked, ver, valid, lru); err != nil {
			return fmt.Errorf("cache %s: way %d: %w", c.name, i, err)
		}
	}
	return nil
}

// restoreWay validates one decoded way and stores it at index i.
func (c *Cache) restoreWay(i int, addr uint64, st, untracked uint8, ver uint64, valid uint8, lru uint64) error {
	switch {
	case untracked > 1 || valid > 1:
		return fmt.Errorf("flag bytes %d, %d are not booleans", untracked, valid)
	case valid == 0:
		if addr != 0 || st != 0 || untracked != 0 || ver != 0 || lru != 0 {
			return fmt.Errorf("empty way holds data")
		}
	case addr&tagMeta != 0:
		return fmt.Errorf("address %#x is not line-aligned", addr)
	case st > uint8(Modified):
		return fmt.Errorf("state %d out of range", st)
	case st == uint8(Invalid):
		return fmt.Errorf("valid line %#x in state I", addr)
	case c.SetIndex(mem.PAddr(addr)) != i/c.ways:
		return fmt.Errorf("line %#x belongs to set %d", addr, c.SetIndex(mem.PAddr(addr)))
	}
	t := addr | uint64(st) | uint64(untracked)*tagUntracked | uint64(valid)*tagValid
	if valid != 0 {
		for _, o := range c.tags[i-i%c.ways : i] {
			if o&^tagFlags == t&^tagFlags {
				return fmt.Errorf("line %#x held twice in its set", addr)
			}
		}
	}
	c.tags[i], c.vers[i], c.lrus[i] = t, ver, lru
	return nil
}

// EncodeState writes both levels and the hierarchy counters. The victim
// scratch buffer is transient (consumed within one access) and not part
// of machine state.
func (h *Hierarchy) EncodeState(e *checkpoint.Encoder) {
	e.Section("hier")
	checkpoint.EncodeStruct(e, &h.stats)
	h.l1.EncodeState(e)
	h.l2.EncodeState(e)
}

// DecodeState overwrites both levels and the hierarchy counters.
func (h *Hierarchy) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("hier")
	checkpoint.DecodeStruct(d, &h.stats)
	if err := h.l1.DecodeState(d); err != nil {
		return err
	}
	return h.l2.DecodeState(d)
}
