package mem

import (
	"fmt"
	"sort"

	"allarm/internal/checkpoint"
)

// EncodeState writes the physical memory map's allocation state: the
// per-node bump pointers, free-frame lists (in stack order — frame
// recycling order affects future placements) and live-frame counts.
func (m *PhysMem) EncodeState(e *checkpoint.Encoder) {
	e.Section("phys")
	e.Len(m.nodes)
	e.U64(m.bytesPerNode)
	for n := 0; n < m.nodes; n++ {
		e.U64(m.next[n])
		e.U64(m.allocated[n])
		e.Len(len(m.free[n]))
		for _, pa := range m.free[n] {
			e.U64(uint64(pa))
		}
	}
}

// DecodeState overwrites the allocation state. The map must have the
// geometry the checkpoint was taken with. Every touched frame must be
// either live or free, and free at most once.
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
		m.next[n] = d.U64()
		m.allocated[n] = d.U64()
		cnt := d.Len(int(m.framesPer))
		if err := d.Err(); err != nil {
			return err
		}
		if m.next[n] > m.framesPer || m.allocated[n]+uint64(cnt) != m.next[n] {
			return fmt.Errorf("mem: node %d checkpoint counts %d live and %d free of %d touched frames, node has %d",
				n, m.allocated[n], cnt, m.next[n], m.framesPer)
		}
		base := uint64(n) * m.bytesPerNode
		m.claimed[n] = make([]uint64, (m.next[n]+63)/64)
		m.free[n] = m.free[n][:0]
		for i := 0; i < cnt; i++ {
			pa := PAddr(d.U64())
			if PageOf(pa) != pa || uint64(pa) < base || uint64(pa) >= base+m.next[n]*PageBytes {
				return fmt.Errorf("mem: node %d free list holds frame %#x it never handed out", n, uint64(pa))
			}
			if m.claim(pa) {
				return fmt.Errorf("mem: node %d free list holds frame %#x twice", n, uint64(pa))
			}
			m.free[n] = append(m.free[n], pa)
		}
	}
	return d.Err()
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
// allocation statistics. The placement policy is recorded and verified
// on decode; the physical map is encoded separately by its owner.
func (as *AddressSpace) EncodeState(e *checkpoint.Encoder) {
	e.Section("space")
	e.I64(int64(as.policy))
	checkpoint.EncodeStruct(e, &as.stats)
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
		e.I64(int64(p.home))
		e.Bool(p.nextTouch)
	}
}

// pteBytes is the encoded size of one page-table entry.
const pteBytes = 8 + 8 + 8 + 1

// DecodeState rebuilds the page table from a checkpoint, replacing any
// existing mappings (a restore may run after the usual pre-placement
// pass; the checkpointed state wins wholesale). The physical map must be
// decoded first. It rejects entries that could not have come from a live
// table: unaligned or repeated pages, and frames that are unaligned,
// beyond the end of memory, homed at a node other than the one recorded,
// never handed out by their node, on its free list, or mapped by an
// earlier entry — of this space or of another space restored since the
// physical map. Any of those would let AllocFrame hand the frame to a
// second page.
func (as *AddressSpace) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("space")
	pol := Policy(d.I64())
	checkpoint.DecodeStruct(d, &as.stats)
	if err := d.Err(); err != nil {
		return err
	}
	if pol != as.policy {
		return fmt.Errorf("mem: checkpoint policy %v, space has %v", pol, as.policy)
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
		next := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		switch {
		case VPageOf(vp) != vp:
			return fmt.Errorf("mem: page-table entry for unaligned page %#x", uint64(vp))
		case as.find(vp) != nil:
			return fmt.Errorf("mem: duplicate page-table entry for page %#x", uint64(vp))
		case PageOf(frame) != frame || uint64(frame) >= as.phys.TotalBytes():
			return fmt.Errorf("mem: page %#x maps to invalid frame %#x", uint64(vp), uint64(frame))
		case as.phys.Home(frame) != home:
			return fmt.Errorf("mem: page %#x records home %d for a frame of node %d", uint64(vp), home, as.phys.Home(frame))
		case uint64(frame)%as.phys.bytesPerNode/PageBytes >= as.phys.FramesTouched(home):
			return fmt.Errorf("mem: page %#x maps to frame %#x, which node %d never handed out", uint64(vp), uint64(frame), home)
		case as.phys.claim(frame):
			return fmt.Errorf("mem: page %#x maps to frame %#x, which is free or already mapped", uint64(vp), uint64(frame))
		}
		as.insert(vp, frame, home).nextTouch = next
	}
	return d.Err()
}
