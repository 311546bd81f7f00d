package core

import (
	"testing"
	"testing/quick"

	"allarm/internal/mem"
	"allarm/internal/rng"
)

func line(i int) mem.PAddr { return mem.PAddr(i * mem.LineBytes) }

func TestProbeFilterLookupAllocRemove(t *testing.T) {
	pf := NewProbeFilter(32<<10, 4) // 512 entries
	if _, ok := pf.Lookup(line(1)); ok {
		t.Fatal("lookup hit in empty filter")
	}
	if _, evicted, ok := pf.Alloc(line(1), EntryEM, 3, nil); !ok || evicted {
		t.Fatal("alloc failed")
	}
	e, ok := pf.Lookup(line(1))
	if !ok || e.State != EntryEM || e.Owner != 3 {
		t.Fatalf("entry %+v", e)
	}
	pf.free(pf.find(line(1)))
	if pf.find(line(1)) >= 0 {
		t.Fatal("entry survived free")
	}
	s := pf.Stats()
	if s.Allocs != 1 || s.Deallocs != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestProbeFilterEvictsLRU(t *testing.T) {
	pf := NewProbeFilter(2*mem.LineBytes, 2) // 1 set, 2 ways
	pf.Alloc(line(0), EntryEM, 0, nil)
	pf.Alloc(line(1), EntryEM, 0, nil)
	pf.Lookup(line(0)) // refresh
	v, evicted, ok := pf.Alloc(line(2), EntryS, 0, nil)
	if !ok || !evicted || v.Addr != line(1) {
		t.Fatalf("victim %+v (evicted %v)", v, evicted)
	}
	if pf.Stats().Evictions != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestProbeFilterSkipsBusyVictims(t *testing.T) {
	pf := NewProbeFilter(2*mem.LineBytes, 2)
	pf.Alloc(line(0), EntryEM, 0, nil)
	pf.Alloc(line(1), EntryEM, 0, nil)
	busy := func(a mem.PAddr) bool { return a == line(1) } // LRU one is busy
	v, evicted, ok := pf.Alloc(line(2), EntryS, 0, busy)
	if !ok || !evicted || v.Addr != line(0) {
		t.Fatalf("victim %+v, want the non-busy line 0", v)
	}
}

func TestProbeFilterAllWaysBusy(t *testing.T) {
	pf := NewProbeFilter(2*mem.LineBytes, 2)
	pf.Alloc(line(0), EntryEM, 0, nil)
	pf.Alloc(line(1), EntryEM, 0, nil)
	busy := func(mem.PAddr) bool { return true }
	if _, _, ok := pf.Alloc(line(2), EntryS, 0, busy); ok {
		t.Fatal("alloc succeeded with every way busy")
	}
	// Nothing changed.
	if pf.Occupancy() != 2 || pf.Peek(line(2)) != nil {
		t.Fatal("failed alloc mutated the filter")
	}
}

func TestProbeFilterUpdate(t *testing.T) {
	pf := NewProbeFilter(32<<10, 4)
	pf.Alloc(line(5), EntryEM, 1, nil)
	pf.update(pf.find(line(5)), EntryO, 2)
	e := pf.Peek(line(5))
	if e.State != EntryO || e.Owner != 2 {
		t.Fatalf("entry %+v", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("update of an absent entry did not panic")
		}
	}()
	pf.update(pf.find(line(6)), EntryS, 0)
}

func TestProbeFilterOccupancyInvariant(t *testing.T) {
	pf := NewProbeFilter(4<<10, 4) // 64 entries
	f := func(ops []uint16) bool {
		for _, op := range ops {
			a := line(int(op % 256))
			if pf.Peek(a) == nil {
				pf.Alloc(a, EntryS, 0, nil)
			} else if op%3 == 0 {
				pf.free(pf.find(a))
			} else {
				pf.Lookup(a)
			}
		}
		// Occupancy bounded; no duplicate tags.
		seen := map[mem.PAddr]bool{}
		dup := false
		pf.ForEachValid(func(e Entry) {
			if seen[e.Addr] {
				dup = true
			}
			seen[e.Addr] = true
		})
		return !dup && pf.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryStateString(t *testing.T) {
	if EntryEM.String() != "EM" || EntryO.String() != "O" || EntryS.String() != "S" {
		t.Fatal("EntryState.String wrong")
	}
}

func TestPolicyString(t *testing.T) {
	// Out-of-range decisions print their number, so a policy returning
	// garbage is identifiable in a panic message.
	if s := MissAction(7).String(); s != "MissAction(7)" {
		t.Fatalf("MissAction(7) prints %q", s)
	}
}

func TestRangeSetNilEnablesAll(t *testing.T) {
	var s *RangeSet
	if !s.Enabled(0x1234) {
		t.Fatal("nil set should enable everything")
	}
	empty, err := NewRangeSet()
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Enabled(0x999) {
		t.Fatal("empty set should enable everything")
	}
}

func TestRangeSetBounds(t *testing.T) {
	s, err := NewRangeSet(AddrRange{Start: 0x1000, End: 0x2000})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a    uint64
		want bool
	}{
		{0x0fff, false}, {0x1000, true}, {0x1fff, true}, {0x2000, false},
	}
	for _, c := range cases {
		if got := s.Enabled(c.a); got != c.want {
			t.Fatalf("Enabled(%#x) = %v", c.a, got)
		}
	}
}

func TestRangeSetMergesOverlaps(t *testing.T) {
	s, err := NewRangeSet(
		AddrRange{Start: 0x3000, End: 0x4000},
		AddrRange{Start: 0x1000, End: 0x2000},
		AddrRange{Start: 0x1800, End: 0x3000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("merged to %d ranges, want 1", s.Len())
	}
	if !s.Enabled(0x2800) || s.Enabled(0x4000) {
		t.Fatal("merged range bounds wrong")
	}
}

func TestRangeSetRejectsInverted(t *testing.T) {
	if _, err := NewRangeSet(AddrRange{Start: 5, End: 5}); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewRangeSet(AddrRange{Start: 9, End: 2}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestRangeSetProperty(t *testing.T) {
	s, err := NewRangeSet(
		AddrRange{Start: 0x1000, End: 0x2000},
		AddrRange{Start: 0x8000, End: 0x9000},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		a := uint64(raw)
		want := (a >= 0x1000 && a < 0x2000) || (a >= 0x8000 && a < 0x9000)
		return s.Enabled(a) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeFilterGeometry(t *testing.T) {
	pf := NewProbeFilter(512<<10, 4)
	if pf.Entries() != 8192 || pf.Entries()*mem.LineBytes != 512<<10 || pf.Ways() != 4 {
		t.Fatalf("geometry: %d entries, %d bytes", pf.Entries(), pf.Entries()*mem.LineBytes)
	}
}

func TestProbeFilterBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewProbeFilter(3*mem.LineBytes, 2) // set count not a power of two
}

func TestBuiltinAllocPolicies(t *testing.T) {
	addr := func(i int) uint64 { return uint64(line(i)) }
	local := Miss{Addr: addr(1), Requester: 2, Home: 2, Local: true}
	remote := Miss{Addr: addr(1), Requester: 3, Home: 2, Local: false}
	var all *RangeSet // nil: ALLARM everywhere
	ctx := PolicyContext{Node: 2, Nodes: 4, InRange: all.Enabled}

	base := NewBaseline(ctx)
	if base.OnMiss(local) != Track || base.OnMiss(remote) != Track {
		t.Fatal("baseline must always track")
	}
	if base.ProbeLocalOnRemoteMiss(addr(1)) {
		t.Fatal("baseline never probes the local core")
	}

	al := NewALLARM(ctx)
	if al.OnMiss(local) != GrantUntracked || al.OnMiss(remote) != Track {
		t.Fatal("allarm decisions wrong")
	}
	if !al.ProbeLocalOnRemoteMiss(addr(1)) {
		t.Fatal("allarm must probe on remote misses")
	}

	// Range registers gate both the untracked grant and the probe.
	rs, err := NewRangeSet(AddrRange{Start: addr(100), End: addr(200)})
	if err != nil {
		t.Fatal(err)
	}
	ctx.InRange = rs.Enabled
	ranged := NewALLARM(ctx)
	if ranged.OnMiss(local) != Track || ranged.ProbeLocalOnRemoteMiss(addr(1)) {
		t.Fatal("out-of-range address not treated as baseline")
	}
	in := local
	in.Addr = addr(150)
	if ranged.OnMiss(in) != GrantUntracked || !ranged.ProbeLocalOnRemoteMiss(addr(150)) {
		t.Fatal("in-range address lost ALLARM behaviour")
	}
}

func TestMissActionString(t *testing.T) {
	for want, a := range map[string]MissAction{
		"track": Track, "grant-untracked": GrantUntracked, "grant-uncached": GrantUncached,
	} {
		if a.String() != want {
			t.Fatalf("%v prints %q", a, a.String())
		}
	}
}

// BenchmarkProbeFilterPeekAlloc drives a Table I probe filter (512 KiB
// coverage, 4-way) with a seeded random mix over four times its coverage:
// each operation peeks a line and allocates it when absent, evicting
// once the filter is full.
func BenchmarkProbeFilterPeekAlloc(b *testing.B) {
	r := rng.New(1)
	addrs := make([]mem.PAddr, 1<<16)
	for i := range addrs {
		addrs[i] = line(r.Intn(4 * (512 << 10) / mem.LineBytes))
	}
	pf := NewProbeFilter(512<<10, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		if pf.Peek(a) == nil {
			pf.Alloc(a, EntryEM, 0, nil)
		}
	}
}
