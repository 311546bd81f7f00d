package mem

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"allarm/internal/checkpoint"
)

// scatter returns the i-th of a set of distinct, widely spread virtual
// pages (an odd stride modulo 2^28 visits every page once), so
// insertion order is unrelated to address order.
func scatter(i int) VAddr { return VAddr(uint64(i)*0x9e3779b1%(1<<28)) * PageBytes }

func TestPageTableGrowth(t *testing.T) {
	const pages = 5000
	m := NewPhysMem(4, 8<<20)
	as := NewAddressSpace(m, FirstTouch)
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
		if home, ok := as.HomeOf(vp); !ok || home != m.Home(pa) || home != NodeID(i%4) {
			t.Fatalf("HomeOf(%#x) = %d,%v", uint64(vp), home, ok)
		}
	}
	if _, ok := as.Lookup(scatter(pages)); ok {
		t.Fatal("unmapped page translated")
	}
	if st := as.Stats(); st.PagesAllocated != pages || st.LocalAllocations != pages {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPageTableNextTouchAcrossGrowth(t *testing.T) {
	m := NewPhysMem(2, 8<<20)
	as := NewAddressSpace(m, NextTouch)
	for i := 0; i < 100; i++ {
		translate(t, as, VAddr(i)*PageBytes, 0)
	}
	as.MarkNextTouch(10*PageBytes, 5*PageBytes) // pages 10..14
	if _, ok := as.Lookup(12 * PageBytes); ok {
		t.Fatal("Lookup served a page marked for next touch")
	}
	// Growth rehashes slots; the marks must move with them.
	for i := 100; i < 1000; i++ {
		translate(t, as, VAddr(i)*PageBytes, 0)
	}
	for i := 0; i < 20; i++ {
		_, ok := as.Lookup(VAddr(i) * PageBytes)
		if marked := i >= 10 && i < 15; ok == marked {
			t.Fatalf("page %d: Lookup ok = %v, marked = %v", i, ok, marked)
		}
	}
	pa := translate(t, as, 12*PageBytes, 1)
	if m.Home(pa) != 1 || as.Stats().Migrations != 1 || as.MappedPages() != 1000 {
		t.Fatalf("migration: home %d, stats %+v, %d mapped", m.Home(pa), as.Stats(), as.MappedPages())
	}
	if got, ok := as.Lookup(12*PageBytes + 8); !ok || got != pa+8 {
		t.Fatal("migrated page does not translate to its new frame")
	}
}

func TestPageTableLookupAllocatesNothing(t *testing.T) {
	m := NewPhysMem(1, 8<<20)
	as := NewAddressSpace(m, FirstTouch)
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
	as := NewAddressSpace(phys, NextTouch)
	return as, as.DecodeState(d)
}

func TestPageTableEncodeSorted(t *testing.T) {
	m := NewPhysMem(2, 8<<20)
	as := NewAddressSpace(m, NextTouch)
	for i := 0; i < 300; i++ {
		translate(t, as, scatter(i), NodeID(i%2))
	}
	as.MarkNextTouch(scatter(7), 1)
	blob := encodeSpace(t, as)

	d, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPhysMem(2, 8<<20).DecodeState(d); err != nil {
		t.Fatal(err)
	}
	d.Expect("space")
	d.I64()
	checkpoint.DecodeStruct(d, &ASStats{})
	n := d.Len(1 << 20)
	var prev VAddr
	marked := 0
	for i := 0; i < n; i++ {
		vp := VAddr(d.U64())
		d.U64()
		d.I64()
		if d.Bool() {
			marked++
		}
		if i > 0 && vp <= prev {
			t.Fatalf("entry %d: page %#x after %#x", i, uint64(vp), uint64(prev))
		}
		prev = vp
	}
	if err := d.Err(); err != nil || n != 300 || marked != 1 || d.Remaining() != 0 {
		t.Fatalf("decoded %d entries (%d marked), err %v, %d bytes left", n, marked, err, d.Remaining())
	}

	r, err := decodeSpace(blob, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSpace(t, r), blob) || r.MappedPages() != 300 {
		t.Fatal("restored page table does not re-encode identically")
	}
	if _, ok := r.Lookup(scatter(7)); ok {
		t.Fatal("restored page lost its next-touch mark")
	}
}

func TestPageTableDecodeRejects(t *testing.T) {
	m := NewPhysMem(2, 1<<20)
	as := NewAddressSpace(m, NextTouch)
	translate(t, as, 0x3000, 0)
	translate(t, as, 0x5000, 1)
	// Node 0 hands out its second frame and takes it back, so frame
	// 0x1000 is free and frame 0x2000 was never handed out.
	f, _ := m.AllocFrame(0)
	m.FreeFrame(f)
	blob := encodeSpace(t, as)
	// The entries follow the last stats field: count, then (page, frame,
	// home, next-touch) per entry.
	first := uint64(len(blob) - 4 - 2*pteBytes)
	// patch writes u64 values at offset, value pairs.
	patch := func(kv ...uint64) []byte {
		b := bytes.Clone(blob)
		for i := 0; i < len(kv); i += 2 {
			binary.LittleEndian.PutUint64(b[kv[i]:], kv[i+1])
		}
		// Recompute the CRC so the decoder sees intact bytes.
		n := len(b) - 4
		binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], crc32.MakeTable(crc32.Castagnoli)))
		return b
	}
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
		{"free frame", "free or already mapped", patch(first+8, 0x1000)},
		{"frame mapped twice", "free or already mapped", patch(second+8, frame0, second+16, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSpace(tc.blob, m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestPhysMemDecodeRejects(t *testing.T) {
	m := NewPhysMem(2, 4*PageBytes)
	a, _ := m.AllocFrame(0)
	m.AllocFrame(0)
	m.FreeFrame(a)
	e := checkpoint.NewEncoder("")
	m.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// After the marker, node count and node size: node 0's bump
	// pointer, live count, free-list length and free frames.
	node0 := bytes.Index(blob, []byte("phys")) + len("phys") + 2*8
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(b[off:], v)
		n := len(b) - 4
		binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], crc32.MakeTable(crc32.Castagnoli)))
		return b
	}
	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"bump pointer beyond node", "touched frames", patch(node0, 5)},
		{"more live than touched", "touched frames", patch(node0+8, 3)},
		{"touched frame neither live nor free", "touched frames", patch(node0+8, 0)},
		{"free frame of another node", "never handed out", patch(node0+24, 4*PageBytes)},
		{"free frame above bump pointer", "never handed out", patch(node0+24, 2*PageBytes)},
		{"unaligned free frame", "never handed out", patch(node0+24, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := checkpoint.NewDecoder(bytes.NewReader(tc.blob))
			if err != nil {
				t.Fatal(err)
			}
			err = NewPhysMem(2, 4*PageBytes).DecodeState(d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	d, _ := checkpoint.NewDecoder(bytes.NewReader(blob))
	if r := NewPhysMem(2, 4*PageBytes); r.DecodeState(d) != nil || r.FramesTouched(0) != 2 || r.FramesInUse(0) != 1 {
		t.Fatal("intact state did not restore")
	}

	// Node 0's second frame freed too, then the second free-list entry
	// rewritten to name the first frame again.
	m.FreeFrame(PageBytes)
	e = checkpoint.NewEncoder("")
	m.EncodeState(e)
	buf.Reset()
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	blob = buf.Bytes()
	d, _ = checkpoint.NewDecoder(bytes.NewReader(patch(node0+32, uint64(a))))
	if err := NewPhysMem(2, 4*PageBytes).DecodeState(d); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate free frame: err = %v", err)
	}
}
