package core

import (
	"fmt"
	"math/bits"

	"allarm/internal/mem"
)

// Per-line directory state: the transaction in flight on each busy line
// and the DRAM data version of each line a writeback reached. Both live
// in flat arrays indexed from the home's base, with no Go map and no
// per-line allocation, and host memory follows the lines that hold
// state:
//
//   - pages has one 16-byte pageState per frame first-touch has handed
//     out (Reserve sizes it; a line beyond it grows it by doubling);
//   - a page with a transaction in flight holds a busyBlock, which goes
//     back to spare once the page's last transaction finishes, so the
//     blocks in use are bounded by the transactions in flight;
//   - vers holds one slot per group of neighbouring lines with a DRAM
//     version.

// pageState is one page's directory state. written has bit i set when
// line i of the page has a DRAM version in vers; busy holds the page's
// in-flight transactions and is nil when every line is idle.
type pageState struct {
	busy    *busyBlock
	written uint64
}

// busyBlock holds the transactions in flight on one page's lines; n
// counts the non-nil ones.
type busyBlock struct {
	txns [mem.LinesPerPage]*txn
	n    int
}

// slot returns addr's page and its line within the page. An address
// outside the home's range is a model bug and panics; one below base
// wraps to an offset beyond Size.
func (d *DirCtrl) slot(addr mem.PAddr) (page, line uint64) {
	off := uint64(addr - d.base)
	if off >= d.cfg.Size {
		panic(fmt.Sprintf("core: directory %d got line %#x outside its home range", d.cfg.Node, uint64(addr)))
	}
	return off / mem.PageBytes, off / mem.LineBytes % mem.LinesPerPage
}

// busy returns the transaction in flight on addr's line, nil when the
// line is idle.
func (d *DirCtrl) busy(addr mem.PAddr) *txn {
	p, i := d.slot(addr)
	if p < uint64(len(d.pages)) {
		if b := d.pages[p].busy; b != nil {
			return b.txns[i]
		}
	}
	return nil
}

// setBusy makes t the transaction in flight on addr's line; nil makes
// the line idle.
func (d *DirCtrl) setBusy(addr mem.PAddr, t *txn) {
	p, i := d.slot(addr)
	ps := d.page(p)
	b := ps.busy
	if b == nil {
		if n := len(d.spare); n > 0 {
			b, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			b = new(busyBlock)
		}
		ps.busy = b
	}
	switch {
	case b.txns[i] == nil && t != nil:
		d.nbusy++
		b.n++
	case b.txns[i] != nil && t == nil:
		d.nbusy--
		b.n--
	}
	b.txns[i] = t
	if b.n == 0 {
		ps.busy = nil
		d.spare = append(d.spare, b)
	}
}

// written reports whether a writeback ever reached DRAM for addr's line.
func (d *DirCtrl) written(addr mem.PAddr) bool {
	p, i := d.slot(addr)
	return p < uint64(len(d.pages)) && d.pages[p].written>>i&1 != 0
}

// version returns the DRAM data version of addr's line, 0 when no
// writeback reached it.
func (d *DirCtrl) version(addr mem.PAddr) uint64 {
	if !d.written(addr) {
		return 0
	}
	return d.vers.get(uint64(addr-d.base) / mem.LineBytes)
}

// setVersion records version as the DRAM data version of addr's line.
func (d *DirCtrl) setVersion(addr mem.PAddr, version uint64) {
	p, i := d.slot(addr)
	d.page(p).written |= 1 << i
	d.vers.put(uint64(addr-d.base)/mem.LineBytes, version)
}

// eachWritten calls fn for every line with a DRAM version, in ascending
// address order.
func (d *DirCtrl) eachWritten(fn func(addr mem.PAddr, version uint64)) {
	for p := range d.pages {
		for w := d.pages[p].written; w != 0; w &= w - 1 {
			line := uint64(p)*mem.LinesPerPage + uint64(bits.TrailingZeros64(w))
			fn(d.base+mem.PAddr(line*mem.LineBytes), d.vers.get(line))
		}
	}
}

// eachBusy calls fn for every transaction in flight, in ascending
// address order.
func (d *DirCtrl) eachBusy(fn func(t *txn)) {
	for p := range d.pages {
		if b := d.pages[p].busy; b != nil {
			for _, t := range &b.txns {
				if t != nil {
					fn(t)
				}
			}
		}
	}
}

// page returns page p's state for update, growing the page array to
// reach it.
func (d *DirCtrl) page(p uint64) *pageState {
	if p >= uint64(len(d.pages)) {
		n := max(2*uint64(len(d.pages)), 1)
		for n <= p {
			n *= 2
		}
		d.resize(n)
	}
	return &d.pages[p]
}

// Reserve sizes the page array for the home's first frames pages, the
// frames handed out so far (mem.PhysMem.FramesTouched). Sizing once up
// front spares the run the array's doubling steps.
func (d *DirCtrl) Reserve(frames uint64) {
	if frames > uint64(len(d.pages)) {
		d.resize(frames)
	}
}

// resize reallocates the page array to n pages, capped at the home's
// range.
func (d *DirCtrl) resize(n uint64) {
	t := make([]pageState, min(n, d.cfg.Size/mem.PageBytes))
	copy(t, d.pages)
	d.pages = t
}

// verTable maps line numbers (offsets from the home's base, in lines) to
// DRAM versions. Like the page table it is a flat open-addressed hash
// table: a power-of-two slot array probed linearly from a
// multiplicative hash. Each slot holds an aligned group of verGroup
// lines, so a run of neighbouring lines shares one slot and its cache
// lines. A version is never dropped, so there are no deletes and no
// tombstones; the table doubles when it passes 3/4 load. Which lines of
// a group hold a version is recorded in pageState.written, not here.
type verTable struct {
	slots []verSlot // len is zero or a power of two, never more than 3/4 full
	n     int       // occupied slots
}

// verGroup is the number of lines one verTable slot covers.
const verGroup = 8

// verSlot is one verTable slot. key is the group number plus one; 0
// marks an empty slot.
type verSlot struct {
	key  uint64
	vers [verGroup]uint64
}

// minVerSlots is the version table's first slot count.
const minVerSlots = 16

// groupHash spreads group numbers over the table (Fibonacci hashing).
func groupHash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> 32 }

// get returns line's version, 0 when the table has none.
func (t *verTable) get(line uint64) uint64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.find(line/verGroup + 1).vers[line%verGroup]
}

// put sets line's version.
func (t *verTable) put(line, ver uint64) {
	key := line/verGroup + 1
	if len(t.slots) == 0 {
		t.slots = make([]verSlot, minVerSlots)
	}
	s := t.find(key)
	if s.key == 0 {
		if (t.n+1)*4 > len(t.slots)*3 {
			old := t.slots
			t.slots = make([]verSlot, 2*len(old))
			for i := range old {
				if old[i].key != 0 {
					*t.find(old[i].key) = old[i]
				}
			}
			s = t.find(key)
		}
		s.key = key
		t.n++
	}
	s.vers[line%verGroup] = ver
}

// find returns key's slot, or the empty slot where it belongs. The
// table must have slots.
func (t *verTable) find(key uint64) *verSlot {
	mask := uint64(len(t.slots) - 1)
	for i := groupHash(key) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}
