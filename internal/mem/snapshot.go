package mem

import (
	"fmt"
	"sort"

	"allarm/internal/checkpoint"
)

// EncodeState writes the physical memory map's allocation state: the
// per-node bump pointers. The layout keeps two fields of an older model
// that recycled frames, written as constants: each node's live-frame
// count, which is its bump pointer since frames are never freed, and an
// empty free list.
func (m *PhysMem) EncodeState(e *checkpoint.Encoder) {
	e.Section("phys")
	e.Len(m.nodes)
	e.U64(m.bytesPerNode)
	for n := 0; n < m.nodes; n++ {
		e.U64(m.next[n])
		e.U64(m.next[n]) // live frames
		e.Len(0)         // free list
	}
}

// DecodeState overwrites the allocation state. The map must have the
// geometry the checkpoint was taken with, and every touched frame must
// be live: a checkpoint with a free frame did not come from this model.
func (m *PhysMem) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("phys")
	nodes := d.Len(m.nodes)
	bpn := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if nodes != m.nodes || bpn != m.bytesPerNode {
		return fmt.Errorf("mem: checkpoint geometry %d nodes × %d B, map has %d × %d",
			nodes, bpn, m.nodes, m.bytesPerNode)
	}
	m.claimed = make([][]uint64, m.nodes)
	for n := 0; n < m.nodes; n++ {
		next, live, free := d.U64(), d.U64(), d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if next > m.framesPer || live != next || free != 0 {
			return fmt.Errorf("mem: node %d checkpoint counts %d live and %d free of %d touched frames, node has %d; frames are never freed",
				n, live, free, next, m.framesPer)
		}
		m.next[n] = next
		m.claimed[n] = make([]uint64, (next+63)/64)
	}
	return nil
}

// claim marks pa's frame, which its node has handed out, as accounted
// for by the restore and reports whether it already was.
func (m *PhysMem) claim(pa PAddr) bool {
	n, f := uint64(pa)/m.bytesPerNode, uint64(pa)%m.bytesPerNode/PageBytes
	w, bit := &m.claimed[n][f/64], uint64(1)<<(f%64)
	was := *w&bit != 0
	*w |= bit
	return was
}

// EncodeState writes one address space's translation state: the page
// table (sorted by virtual page, for a deterministic byte stream) and
// allocation statistics; the physical map is encoded separately by its
// owner. The layout keeps the fields of an older model with next-touch
// migration, written as constants: placement policy 0 (first touch), a
// migration count of 0, and per entry its frame's home node and a clear
// next-touch mark.
func (as *AddressSpace) EncodeState(e *checkpoint.Encoder) {
	e.Section("space")
	e.I64(0) // placement policy
	checkpoint.EncodeStruct(e, &as.stats)
	e.U64(0) // migrations
	ptes := make([]pte, 0, as.mapped)
	for i := range as.pages {
		if as.pages[i].key != 0 {
			ptes = append(ptes, as.pages[i])
		}
	}
	sort.Slice(ptes, func(i, j int) bool { return ptes[i].key < ptes[j].key })
	e.Len(len(ptes))
	for i := range ptes {
		p := &ptes[i]
		e.U64(uint64(p.vpage()))
		e.U64(uint64(p.frame))
		e.I64(int64(as.phys.Home(p.frame)))
		e.Bool(false) // next-touch mark
	}
}

// pteBytes is the encoded size of one page-table entry.
const pteBytes = 8 + 8 + 8 + 1

// DecodeState rebuilds the page table from a checkpoint, replacing any
// existing mappings (a restore may run after the usual pre-placement
// pass; the checkpointed state wins wholesale). The physical map must be
// decoded first. It rejects a placement policy other than first touch,
// a migration, and entries that could not have come from a live table:
// unaligned or repeated pages, pages marked for next touch, and frames
// that are unaligned, beyond the end of memory, homed at a node other
// than the one recorded, never handed out by their node, or mapped by an
// earlier entry — of this space or of another space restored since the
// physical map. Any of those would let AllocFrame hand the frame to a
// second page.
func (as *AddressSpace) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("space")
	policy := d.I64()
	checkpoint.DecodeStruct(d, &as.stats)
	migrations := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if policy != 0 || migrations != 0 {
		return fmt.Errorf("mem: checkpoint records placement policy %d and %d migrations; only first touch (policy 0) is modelled",
			policy, migrations)
	}
	// Every entry takes pteBytes of payload, which bounds the table
	// allocated below by the checkpoint's size.
	n := d.Len(d.Remaining() / pteBytes)
	if err := d.Err(); err != nil {
		return err
	}
	slots := minPageSlots
	for n*4 > slots*3 {
		slots *= 2
	}
	as.pages, as.mapped = make([]pte, slots), 0
	if as.phys.claimed == nil {
		return fmt.Errorf("mem: address space decoded before its physical map")
	}
	for i := 0; i < n; i++ {
		vp := VAddr(d.U64())
		frame := PAddr(d.U64())
		home := NodeID(d.I64())
		marked := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		switch {
		case VPageOf(vp) != vp:
			return fmt.Errorf("mem: page-table entry for unaligned page %#x", uint64(vp))
		case marked:
			return fmt.Errorf("mem: page %#x is marked for next-touch migration, which is not modelled", uint64(vp))
		case as.find(vp) != nil:
			return fmt.Errorf("mem: duplicate page-table entry for page %#x", uint64(vp))
		case PageOf(frame) != frame || uint64(frame) >= as.phys.TotalBytes():
			return fmt.Errorf("mem: page %#x maps to invalid frame %#x", uint64(vp), uint64(frame))
		case as.phys.Home(frame) != home:
			return fmt.Errorf("mem: page %#x records home %d for a frame of node %d", uint64(vp), home, as.phys.Home(frame))
		case uint64(frame)%as.phys.bytesPerNode/PageBytes >= as.phys.FramesTouched(home):
			return fmt.Errorf("mem: page %#x maps to frame %#x, which node %d never handed out", uint64(vp), uint64(frame), home)
		case as.phys.claim(frame):
			return fmt.Errorf("mem: page %#x maps to frame %#x, which is already mapped", uint64(vp), uint64(frame))
		}
		as.insert(vp, frame)
	}
	return d.Err()
}
