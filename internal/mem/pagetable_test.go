package mem

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"allarm/internal/checkpoint"
)

// scatter returns the i-th of a set of distinct, widely spread virtual
// pages (an odd stride modulo 2^28 visits every page once), so
// insertion order is unrelated to address order.
func scatter(i int) VAddr { return VAddr(uint64(i)*0x9e3779b1%(1<<28)) * PageBytes }

func TestPageTableGrowth(t *testing.T) {
	const pages = 5000
	m := NewPhysMem(4, 8<<20)
	as := NewAddressSpace(m)
	want := make(map[VAddr]PAddr, pages)
	for i := 0; i < pages; i++ {
		va := scatter(i) + VAddr(i%PageBytes)
		want[VPageOf(va)] = PageOf(translate(t, as, va, NodeID(i%4)))
	}
	if as.MappedPages() != pages || len(want) != pages {
		t.Fatalf("MappedPages = %d, want %d", as.MappedPages(), pages)
	}
	if n := len(as.pages); n&(n-1) != 0 || pages*4 > n*3 {
		t.Fatalf("%d slots for %d pages: not a power of two under 3/4 load", n, pages)
	}
	for i := 0; i < pages; i++ {
		vp := scatter(i)
		pa, ok := as.Lookup(vp + 24)
		if !ok || pa != want[vp]+24 {
			t.Fatalf("Lookup(%#x) = %#x,%v, want %#x", uint64(vp), uint64(pa), ok, uint64(want[vp]+24))
		}
		if home := m.Home(pa); home != NodeID(i%4) {
			t.Fatalf("page %#x homed at %d, want %d", uint64(vp), home, i%4)
		}
	}
	if _, ok := as.Lookup(scatter(pages)); ok {
		t.Fatal("unmapped page translated")
	}
	if st := as.Stats(); st.PagesAllocated != pages || st.LocalAllocations != pages {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPageTableLookupAllocatesNothing(t *testing.T) {
	m := NewPhysMem(1, 8<<20)
	as := NewAddressSpace(m)
	for i := 0; i < 600; i++ {
		translate(t, as, scatter(i), 0)
	}
	va := scatter(300) + 100
	if n := testing.AllocsPerRun(100, func() { as.Lookup(va) }); n != 0 {
		t.Fatalf("Lookup allocates %v times per call", n)
	}
}

// encodeSpace checkpoints a space after its physical map, the order a
// machine checkpoint uses.
func encodeSpace(t *testing.T, as *AddressSpace) []byte {
	t.Helper()
	e := checkpoint.NewEncoder("")
	as.phys.EncodeState(e)
	as.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeSpace(blob []byte, phys *PhysMem) (*AddressSpace, error) {
	d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	if err := phys.DecodeState(d); err != nil {
		return nil, err
	}
	as := NewAddressSpace(phys)
	return as, as.DecodeState(d)
}

func TestPageTableEncodeSorted(t *testing.T) {
	m := NewPhysMem(2, 8<<20)
	as := NewAddressSpace(m)
	for i := 0; i < 300; i++ {
		translate(t, as, scatter(i), NodeID(i%2))
	}
	blob := encodeSpace(t, as)

	d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPhysMem(2, 8<<20).DecodeState(d); err != nil {
		t.Fatal(err)
	}
	// The retired policy, migration count and next-touch marks are
	// written as constants.
	d.Expect("space")
	if policy := d.I64(); policy != 0 {
		t.Fatalf("policy = %d, want 0", policy)
	}
	checkpoint.DecodeStruct(d, &ASStats{})
	if migrations := d.U64(); migrations != 0 {
		t.Fatalf("migrations = %d, want 0", migrations)
	}
	n := d.Len(1 << 20)
	var prev VAddr
	for i := 0; i < n; i++ {
		vp := VAddr(d.U64())
		frame := PAddr(d.U64())
		if home := NodeID(d.I64()); home != m.Home(frame) {
			t.Fatalf("entry %d: home %d for a frame of node %d", i, home, m.Home(frame))
		}
		if d.Bool() {
			t.Fatalf("entry %d: next-touch mark set", i)
		}
		if i > 0 && vp <= prev {
			t.Fatalf("entry %d: page %#x after %#x", i, uint64(vp), uint64(prev))
		}
		prev = vp
	}
	if err := d.Err(); err != nil || n != 300 || d.Remaining() != 0 {
		t.Fatalf("decoded %d entries, err %v, %d bytes left", n, err, d.Remaining())
	}

	r, err := decodeSpace(blob, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSpace(t, r), blob) || r.MappedPages() != 300 {
		t.Fatal("restored page table does not re-encode identically")
	}
}

// reframe recomputes a checkpoint's CRC so the decoder sees intact
// bytes.
func reframe(b []byte) []byte {
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

func TestPageTableDecodeRejects(t *testing.T) {
	m := NewPhysMem(2, 1<<20)
	as := NewAddressSpace(m)
	translate(t, as, 0x3000, 0)
	translate(t, as, 0x5000, 1)
	// Node 0 hands out its second frame, 0x1000, to no page; its third,
	// 0x2000, was never handed out.
	m.AllocFrame(0)
	blob := encodeSpace(t, as)
	// The entries follow the migration count and the entry count:
	// (page, frame, home, next-touch) per entry. Before the stats come
	// the policy and the section marker.
	first := uint64(len(blob) - 4 - 2*pteBytes)
	migrations := first - 16
	policy := migrations - 3*8 - 8
	// patch writes u64 values at offset, value pairs.
	patch := func(kv ...uint64) []byte {
		b := bytes.Clone(blob)
		for i := 0; i < len(kv); i += 2 {
			binary.LittleEndian.PutUint64(b[kv[i]:], kv[i+1])
		}
		return reframe(b)
	}
	marked := bytes.Clone(blob)
	marked[first+24] = 1
	// A page mapping a frame its node lists as free, as a model that
	// recycled frames could write: node 0 counts one of its two touched
	// frames live and holds frame 0x1000 on its free list. The free
	// frame lengthens the payload, whose length the header records
	// after the (empty) meta string.
	node0 := uint64(bytes.Index(blob, []byte("phys")) + len("phys") + 2*8)
	freed := slices.Insert(patch(first+8, 0x1000, node0+8, 1, node0+16, 1), int(node0+24), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(freed[node0+24:], 0x1000)
	binary.LittleEndian.PutUint64(freed[14:], binary.LittleEndian.Uint64(freed[14:])+8)
	second := first + pteBytes
	frame0 := binary.LittleEndian.Uint64(blob[first+8:])
	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"unaligned page", "unaligned page", patch(first, 0x3008)},
		{"duplicate page", "duplicate", patch(second, 0x3000)},
		{"unaligned frame", "invalid frame", patch(first+8, 8)},
		{"frame beyond memory", "invalid frame", patch(first+8, 2<<20)},
		{"home mismatch", "records home", patch(first+16, 1)},
		{"count beyond payload", "exceeds limit", patch(first-8, 1<<30)},
		{"frame never handed out", "never handed out", patch(first+8, 0x2000)},
		{"free frame", "touched frames", reframe(freed)},
		{"frame mapped twice", "already mapped", patch(second+8, frame0, second+16, 0)},
		{"next-touch policy", "placement policy 1", patch(policy, 1)},
		{"migration", "1 migrations", patch(migrations, 1)},
		{"next-touch mark", "next-touch", reframe(marked)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSpace(tc.blob, m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	if _, err := decodeSpace(blob, m); err != nil {
		t.Fatalf("intact state did not restore: %v", err)
	}
}

func TestPhysMemDecodeRejects(t *testing.T) {
	// physBlob is the phys section of a map of two nodes of four frames
	// each, whose node 0 has handed out next frames, counts live of them
	// as live and holds free on its free list (node 1 is untouched): the
	// layout an older model that recycled frames wrote.
	physBlob := func(next, live uint64, free ...uint64) []byte {
		e := checkpoint.NewEncoder("")
		e.Section("phys")
		e.Len(2)
		e.U64(4 * PageBytes)
		e.U64(next)
		e.U64(live)
		e.Len(len(free))
		for _, pa := range free {
			e.U64(pa)
		}
		e.U64(0)
		e.U64(0)
		e.Len(0)
		var buf bytes.Buffer
		if err := e.Close(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func(blob []byte) (*PhysMem, error) {
		d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		r := NewPhysMem(2, 4*PageBytes)
		return r, r.DecodeState(d)
	}

	m := NewPhysMem(2, 4*PageBytes)
	m.AllocFrame(0)
	m.AllocFrame(0)
	e := checkpoint.NewEncoder("")
	m.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), physBlob(2, 2)) {
		t.Fatal("a map that handed out two frames does not encode them as live with an empty free list")
	}
	if r, err := decode(buf.Bytes()); err != nil || r.FramesTouched(0) != 2 || r.FramesTouched(1) != 0 {
		t.Fatalf("intact state did not restore: %v", err)
	}

	// Every touched frame must be live; any free frame is rejected,
	// whatever it names.
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"bump pointer beyond node", physBlob(5, 5)},
		{"more live than touched", physBlob(2, 3)},
		{"touched frame neither live nor free", physBlob(2, 1)},
		{"recycled frame", physBlob(2, 1, PageBytes)},
		{"free frame of another node", physBlob(2, 1, 4*PageBytes)},
		{"free frame above bump pointer", physBlob(2, 1, 2*PageBytes)},
		{"unaligned free frame", physBlob(2, 1, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decode(tc.blob); err == nil || !strings.Contains(err.Error(), "touched frames") {
				t.Fatalf("err = %v, want a touched-frames error", err)
			}
		})
	}
}

// TestPTESize pins the page-table slot at 16 bytes (key and frame):
// the table is the largest host allocation of a big footprint.
func TestPTESize(t *testing.T) {
	if n := unsafe.Sizeof(pte{}); n != 16 {
		t.Fatalf("pte is %d bytes, want 16", n)
	}
}
