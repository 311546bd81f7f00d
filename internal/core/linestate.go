package core

import (
	"fmt"
	"math/bits"

	"allarm/internal/mem"
)

// Per-line directory state: the transaction in flight on each busy line
// and the DRAM data version of each line a writeback reached. Both hang
// off one flat array of pages indexed from the home's base, with no Go
// map and no per-line allocation, and host memory follows the lines
// that hold state:
//
//   - pages has one 16-byte pageState per frame first-touch has handed
//     out (Reserve sizes it; a line beyond it grows it by doubling);
//   - a page with a transaction in flight holds a busyBlock, which goes
//     back to spare once the page's last transaction finishes, so the
//     blocks in use are bounded by the transactions in flight;
//   - a page a writeback reached holds a verBlock for the rest of the
//     run (a DRAM version is never dropped). Blocks are cut from chunks
//     of verChunk that the machine's directories share (VersionBlocks),
//     so a run allocates once per verChunk written pages.

// pageState is one page's directory state: busy holds the page's
// in-flight transactions and is nil when every line is idle; vers holds
// its lines' DRAM versions and is nil until a writeback reaches one.
type pageState struct {
	busy *busyBlock
	vers *verBlock
}

// busyBlock holds the transactions in flight on one page's lines; n
// counts the non-nil ones.
type busyBlock struct {
	txns [mem.LinesPerPage]*txn
	n    int
}

// verBlock holds the DRAM versions of one page's lines: written has bit
// i set when a writeback reached line i, and v[i] is that line's version
// (0 for a line no writeback reached).
type verBlock struct {
	written uint64
	v       [mem.LinesPerPage]uint64
}

// VersionBlocks hands out DRAM version blocks, verChunk per allocation.
// The directories of one machine share one, so the machine leaves one
// chunk partly unused, not one per directory. The zero value is ready
// for use; like the directories it serves, it is driven by one event
// loop and is not safe for concurrent use.
type VersionBlocks struct {
	free []verBlock // the current chunk's blocks not yet handed out
}

// verChunk is the number of verBlocks one allocation provides. Its
// 9,360 bytes nearly fill the allocator's 9,472-byte size class, which
// 16 blocks would round up to as well.
const verChunk = 18

// get returns an empty block.
func (vb *VersionBlocks) get() *verBlock {
	if len(vb.free) == 0 {
		vb.free = make([]verBlock, verChunk)
	}
	b := &vb.free[0]
	vb.free = vb.free[1:]
	return b
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

// verBlockOf returns the version block of addr's page, nil before a
// writeback reached the page, and addr's line within the page.
func (d *DirCtrl) verBlockOf(addr mem.PAddr) (*verBlock, uint64) {
	p, i := d.slot(addr)
	if p < uint64(len(d.pages)) {
		return d.pages[p].vers, i
	}
	return nil, i
}

// written reports whether a writeback ever reached DRAM for addr's line.
func (d *DirCtrl) written(addr mem.PAddr) bool {
	b, i := d.verBlockOf(addr)
	return b != nil && b.written>>i&1 != 0
}

// version returns the DRAM data version of addr's line, 0 when no
// writeback reached it.
func (d *DirCtrl) version(addr mem.PAddr) uint64 {
	if b, i := d.verBlockOf(addr); b != nil {
		return b.v[i]
	}
	return 0
}

// setVersion records version as the DRAM data version of addr's line,
// giving the page its version block at its first writeback.
func (d *DirCtrl) setVersion(addr mem.PAddr, version uint64) {
	p, i := d.slot(addr)
	ps := d.page(p)
	if ps.vers == nil {
		ps.vers = d.cfg.Versions.get()
	}
	ps.vers.written |= 1 << i
	ps.vers.v[i] = version
}

// eachWritten calls fn for every line with a DRAM version, in ascending
// address order.
func (d *DirCtrl) eachWritten(fn func(addr mem.PAddr, version uint64)) {
	for p := range d.pages {
		if b := d.pages[p].vers; b != nil {
			for w := b.written; w != 0; w &= w - 1 {
				i := bits.TrailingZeros64(w)
				line := uint64(p)*mem.LinesPerPage + uint64(i)
				fn(d.base+mem.PAddr(line*mem.LineBytes), b.v[i])
			}
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
