// Package mem models the memory-system substrate ALLARM depends on:
// physical/virtual addresses, cache-line and page arithmetic, the NUMA
// physical memory map (one DRAM block per node), and the operating
// system's first-touch page placement, whose behaviour ALLARM exploits.
//
// ALLARM's private-data detection is stateless: it assumes first-touch
// allocation homes thread-local pages at the toucher's node. This package
// is therefore part of the paper's trusted computing base and is modelled
// faithfully, including the best-effort fallback to remote nodes when a
// domain's memory is exhausted (§II-A of the paper). A page keeps its
// first-touch frame for the whole run: pages never migrate and frames
// are never freed.
package mem

import (
	"errors"
	"fmt"
)

// VAddr is a virtual address within one process's address space.
type VAddr uint64

// PAddr is a physical address in the machine-wide NUMA memory map.
type PAddr uint64

// NodeID identifies a node (core + directory + memory controller); each
// node is one affinity domain, matching the paper's evaluated system.
type NodeID int32

// Geometry constants for the simulated machine (Table I of the paper).
const (
	// LineBytes is the coherence granule (cache block size).
	LineBytes = 64
	// PageBytes is the OS page size used for NUMA placement decisions.
	PageBytes = 4096
	// LinesPerPage is the number of coherence granules per page.
	LinesPerPage = PageBytes / LineBytes
)

// LineOf returns the line-aligned base of a physical address.
func LineOf(a PAddr) PAddr { return a &^ (LineBytes - 1) }

// PageOf returns the page-aligned base of a physical address.
func PageOf(a PAddr) PAddr { return a &^ (PageBytes - 1) }

// VPageOf returns the page-aligned base of a virtual address.
func VPageOf(a VAddr) VAddr { return a &^ (PageBytes - 1) }

// PageOffset returns the offset of a virtual address within its page.
func PageOffset(a VAddr) uint64 { return uint64(a) & (PageBytes - 1) }

// PhysMem is the machine's NUMA physical memory: nodes × bytesPerNode,
// laid out contiguously so that Home is a pure function of the address
// (node i owns [i*bytesPerNode, (i+1)*bytesPerNode)).
type PhysMem struct {
	nodes        int
	bytesPerNode uint64
	framesPer    uint64
	next         []uint64 // per-node bump pointer, in frames
	// claimed is restore bookkeeping, one bit per touched frame of each
	// node: every AddressSpace.DecodeState claims the frames it maps, so
	// no frame restores as mapped by two pages. A running machine never
	// reads it.
	claimed [][]uint64
}

// NewPhysMem builds a physical memory map with the given number of nodes,
// each owning bytesPerNode bytes of DRAM. bytesPerNode must be a positive
// multiple of the page size.
func NewPhysMem(nodes int, bytesPerNode uint64) *PhysMem {
	if nodes <= 0 {
		panic("mem: NewPhysMem needs at least one node")
	}
	if bytesPerNode == 0 || bytesPerNode%PageBytes != 0 {
		panic("mem: bytesPerNode must be a positive multiple of the page size")
	}
	return &PhysMem{
		nodes:        nodes,
		bytesPerNode: bytesPerNode,
		framesPer:    bytesPerNode / PageBytes,
		next:         make([]uint64, nodes),
	}
}

// Nodes returns the number of NUMA nodes.
func (m *PhysMem) Nodes() int { return m.nodes }

// TotalBytes returns the machine-wide DRAM capacity.
func (m *PhysMem) TotalBytes() uint64 { return uint64(m.nodes) * m.bytesPerNode }

// Home returns the node that owns (is the coherence home of) pa.
// Addresses beyond the end of memory panic: they indicate a model bug.
func (m *PhysMem) Home(pa PAddr) NodeID {
	n := uint64(pa) / m.bytesPerNode
	if n >= uint64(m.nodes) {
		panic(fmt.Sprintf("mem: physical address %#x beyond end of memory", uint64(pa)))
	}
	return NodeID(n)
}

// AllocFrame allocates one physical page frame from node n's DRAM.
// It returns ok == false when the node is out of memory. Frames are
// never freed.
func (m *PhysMem) AllocFrame(n NodeID) (PAddr, bool) {
	if int(n) < 0 || int(n) >= m.nodes {
		panic(fmt.Sprintf("mem: AllocFrame on invalid node %d", n))
	}
	if m.next[n] >= m.framesPer {
		return 0, false
	}
	frame := m.next[n]
	m.next[n]++
	base := uint64(n)*m.bytesPerNode + frame*PageBytes
	return PAddr(base), true
}

// FramesTouched returns node n's bump pointer: the node has handed out
// exactly its first FramesTouched frames, and all of them are live.
func (m *PhysMem) FramesTouched(n NodeID) uint64 { return m.next[n] }

// pte is one page-table slot, stored by value in the address space's
// hash table. key is the virtual page with bit 0 set (pages are aligned,
// so the bit is otherwise zero); key 0 marks an empty slot. The home
// node is not stored: it is a function of the frame (PhysMem.Home).
type pte struct {
	key   VAddr
	frame PAddr
}

// vpage returns the virtual page an occupied slot maps.
func (p *pte) vpage() VAddr { return p.key &^ 1 }

// ASStats counts address-space events of interest to the evaluation.
type ASStats struct {
	// PagesAllocated is the number of page frames ever allocated.
	PagesAllocated uint64
	// LocalAllocations counts pages placed at the requesting node.
	LocalAllocations uint64
	// RemoteFallbacks counts pages placed remotely because the requested
	// node was out of memory (first-touch is best-effort).
	RemoteFallbacks uint64
}

// AddressSpace is one process's virtual address space, translating virtual
// pages to physical frames placed by first touch.
//
// The page table is a flat open-addressed hash table of ptes stored by
// value: a power-of-two slot array probed linearly from a multiplicative
// hash of the page number. Pages are never unmapped or moved, so there
// are no deletes and no tombstones; the table
// doubles when it passes 3/4 load. A lookup therefore touches one or two
// adjacent slots and follows no pointer.
//
// AddressSpace is not safe for concurrent use; the simulator is single-
// threaded by design.
type AddressSpace struct {
	phys   *PhysMem
	pages  []pte // len is a power of two, never more than 3/4 full
	mapped int   // occupied slots
	stats  ASStats
}

// minPageSlots is the page table's initial slot count.
const minPageSlots = 64

// NewAddressSpace creates an empty address space over phys.
func NewAddressSpace(phys *PhysMem) *AddressSpace {
	return &AddressSpace{
		phys:  phys,
		pages: make([]pte, minPageSlots),
	}
}

// pageHash spreads page numbers over the table (Fibonacci hashing; the
// high half of the product mixes every page-number bit).
func pageHash(vp VAddr) uint64 {
	return (uint64(vp) / PageBytes * 0x9e3779b97f4a7c15) >> 32
}

// find returns vp's slot, or nil when vp is unmapped.
func (as *AddressSpace) find(vp VAddr) *pte {
	key := vp | 1
	mask := uint64(len(as.pages) - 1)
	for i := pageHash(vp) & mask; ; i = (i + 1) & mask {
		p := &as.pages[i]
		if p.key == key {
			return p
		}
		if p.key == 0 {
			return nil
		}
	}
}

// insert maps the unmapped page vp and returns its slot.
func (as *AddressSpace) insert(vp VAddr, frame PAddr) *pte {
	if (as.mapped+1)*4 > len(as.pages)*3 {
		as.resize(2 * len(as.pages))
	}
	as.mapped++
	return as.place(pte{key: vp | 1, frame: frame})
}

// place stores e in the first free slot of its probe sequence.
func (as *AddressSpace) place(e pte) *pte {
	mask := uint64(len(as.pages) - 1)
	i := pageHash(e.vpage()) & mask
	for as.pages[i].key != 0 {
		i = (i + 1) & mask
	}
	as.pages[i] = e
	return &as.pages[i]
}

// resize rehashes the table into n slots (a power of two).
func (as *AddressSpace) resize(n int) {
	old := as.pages
	as.pages = make([]pte, n)
	for i := range old {
		if old[i].key != 0 {
			as.place(old[i])
		}
	}
}

// Stats returns a copy of the accumulated allocation statistics.
func (as *AddressSpace) Stats() ASStats { return as.stats }

// ErrExhausted reports a page fault that found no free frame on any
// node.
var ErrExhausted = errors.New("mem: physical memory exhausted")

// Lookup is the per-access fast path of Translate: it returns the
// physical address of va when va's page is mapped. Otherwise ok is
// false and the access must fault through Translate.
func (as *AddressSpace) Lookup(va VAddr) (pa PAddr, ok bool) {
	e := as.find(VPageOf(va))
	if e == nil {
		return 0, false
	}
	return e.frame + PAddr(PageOffset(va)), true
}

// Translate maps va to a physical address, allocating the page at
// requester's node on first touch (falling back to the nearest node with
// free memory, in ascending hop order, when the local node is full).
//
// A fault that finds no free frame on any node returns ErrExhausted and
// leaves the address space unchanged.
func (as *AddressSpace) Translate(va VAddr, requester NodeID) (PAddr, error) {
	vp := VPageOf(va)
	e := as.find(vp)
	if e == nil {
		frame, err := as.allocate(requester)
		if err != nil {
			return 0, err
		}
		e = as.insert(vp, frame)
	}
	return e.frame + PAddr(PageOffset(va)), nil
}

// allocate places a frame at want, or at the next node (mod N) with free
// memory.
func (as *AddressSpace) allocate(want NodeID) (PAddr, error) {
	n := as.phys.Nodes()
	for i := 0; i < n; i++ {
		node := NodeID((int(want) + i) % n)
		if frame, ok := as.phys.AllocFrame(node); ok {
			as.stats.PagesAllocated++
			if node == want {
				as.stats.LocalAllocations++
			} else {
				as.stats.RemoteFallbacks++
			}
			return frame, nil
		}
	}
	return 0, ErrExhausted
}

// MappedPages returns the number of pages currently mapped.
func (as *AddressSpace) MappedPages() int { return as.mapped }
