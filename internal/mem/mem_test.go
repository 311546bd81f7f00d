package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddressArithmetic(t *testing.T) {
	a := PAddr(0x12345)
	if LineOf(a) != 0x12340 {
		t.Fatalf("LineOf = %#x", uint64(LineOf(a)))
	}
	if PageOf(a) != 0x12000 {
		t.Fatalf("PageOf = %#x", uint64(PageOf(a)))
	}
	v := VAddr(0x12345)
	if VPageOf(v) != 0x12000 {
		t.Fatalf("virtual arithmetic wrong")
	}
	if PageOffset(v) != 0x345 {
		t.Fatalf("PageOffset = %#x", PageOffset(v))
	}
}

func TestAddressArithmeticProperties(t *testing.T) {
	f := func(raw uint64) bool {
		a := PAddr(raw)
		return LineOf(a) <= a && a-LineOf(a) < LineBytes &&
			PageOf(a) <= a && a-PageOf(a) < PageBytes &&
			PageOf(LineOf(a)) == PageOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysMemHome(t *testing.T) {
	m := NewPhysMem(4, 1<<20)
	if m.Home(0) != 0 || m.Home(1<<20) != 1 || m.Home(4<<20-1) != 3 {
		t.Fatal("Home mapping wrong")
	}
	if m.TotalBytes() != 4<<20 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
}

func TestPhysMemHomePanicsBeyondEnd(t *testing.T) {
	m := NewPhysMem(2, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Home(PAddr(2 << 20))
}

func TestAllocFrameAndExhaustion(t *testing.T) {
	m := NewPhysMem(2, 2*PageBytes)
	a, ok := m.AllocFrame(0)
	b, ok2 := m.AllocFrame(0)
	if !ok || !ok2 || a == b {
		t.Fatalf("alloc: %v %v %v %v", a, ok, b, ok2)
	}
	if m.Home(a) != 0 || m.Home(b) != 0 {
		t.Fatal("frames not homed at requested node")
	}
	if _, ok := m.AllocFrame(0); ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.FramesTouched(0) != 2 || m.FramesTouched(1) != 0 {
		t.Fatalf("FramesTouched = %d,%d", m.FramesTouched(0), m.FramesTouched(1))
	}
}

// translate is Translate for faults that must succeed.
func translate(t *testing.T, as *AddressSpace, va VAddr, node NodeID) PAddr {
	t.Helper()
	pa, err := as.Translate(va, node)
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

func TestFirstTouchPlacesLocally(t *testing.T) {
	m := NewPhysMem(4, 1<<20)
	as := NewAddressSpace(m)
	pa := translate(t, as, 0x1000, 2)
	if m.Home(pa) != 2 {
		t.Fatalf("first touch homed at %d, want 2", m.Home(pa))
	}
	// Same page from another node keeps its home.
	pa2 := translate(t, as, 0x1008, 3)
	if PageOf(pa2) != PageOf(pa) {
		t.Fatal("same virtual page translated to different frames")
	}
	if pa, ok := as.Lookup(0x1000); !ok || m.Home(pa) != 2 {
		t.Fatalf("home of the mapped page = %d,%v", m.Home(pa), ok)
	}
	st := as.Stats()
	if st.PagesAllocated != 1 || st.LocalAllocations != 1 || st.RemoteFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFirstTouchFallsBackWhenFull(t *testing.T) {
	m := NewPhysMem(2, PageBytes) // one frame per node
	as := NewAddressSpace(m)
	translate(t, as, 0x0000, 0)
	pa := translate(t, as, 0x2000, 0) // node 0 full → falls back to node 1
	if m.Home(pa) != 1 {
		t.Fatalf("fallback home = %d", m.Home(pa))
	}
	if st := as.Stats(); st.RemoteFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryExhaustionErrors(t *testing.T) {
	m := NewPhysMem(1, PageBytes)
	as := NewAddressSpace(m)
	pa := translate(t, as, 0x0000, 0)
	if _, err := as.Translate(0x2000, 0); !errors.Is(err, ErrExhausted) {
		t.Fatalf("fault on a full machine: err = %v, want ErrExhausted", err)
	}
	// The failed fault maps nothing; the mapped page still translates.
	if _, ok := as.Lookup(0x2000); ok || as.MappedPages() != 1 {
		t.Fatalf("failed fault mapped a page (%d mapped)", as.MappedPages())
	}
	if got, ok := as.Lookup(0x0008); !ok || got != pa+8 {
		t.Fatalf("Lookup(0x8) = %#x,%v, want %#x", uint64(got), ok, uint64(pa+8))
	}
}

func TestTranslatePreservesOffsets(t *testing.T) {
	m := NewPhysMem(2, 1<<20)
	as := NewAddressSpace(m)
	f := func(off uint16) bool {
		va := VAddr(0x40000) + VAddr(off%PageBytes)
		pa := translate(t, as, va, 1)
		return uint64(pa)%PageBytes == uint64(va)%PageBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d", as.MappedPages())
	}
}
