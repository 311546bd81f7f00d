package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"allarm/internal/mem"
	"allarm/internal/rng"
)

func line(i int) mem.PAddr { return mem.PAddr(i * mem.LineBytes) }

// present reports whether c holds a, through the probe path (find), which
// leaves LRU state alone.
func present(c *Cache, a mem.PAddr) bool { return c.find(a) >= 0 }

// countValid counts c's valid lines.
func countValid(c *Cache) int {
	n := 0
	c.ForEachValid(func(Line) { n++ })
	return n
}

func TestStatePredicates(t *testing.T) {
	cases := []struct {
		s                      State
		valid, dirty, writable bool
	}{
		{Invalid, false, false, false},
		{Shared, true, false, false},
		{Exclusive, true, false, true},
		{Owned, true, true, false},
		{Modified, true, true, true},
	}
	for _, c := range cases {
		if c.s.Valid() != c.valid || c.s.Dirty() != c.dirty || c.s.Writable() != c.writable {
			t.Fatalf("state %v predicates wrong", c.s)
		}
	}
}

func TestInsertLookupRemove(t *testing.T) {
	c := New("t", 4096, 4) // 64 lines, 16 sets
	c.Insert(Line{Addr: line(1), State: Exclusive})
	if l := c.Lookup(line(1)); !l.Ok() || l.State() != Exclusive {
		t.Fatal("lookup after insert failed")
	}
	if present(c, line(2)) {
		t.Fatal("peek of absent line succeeded")
	}
	if l := c.take(c.find(line(1))); l.Addr != line(1) {
		t.Fatalf("remove returned %+v", l)
	}
	if present(c, line(1)) {
		t.Fatal("line survived removal")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 2*mem.LineBytes, 2) // 1 set, 2 ways
	c.Insert(Line{Addr: line(0), State: Exclusive})
	c.Insert(Line{Addr: line(1), State: Exclusive})
	c.Lookup(line(0)) // refresh 0 → 1 is LRU
	v, evicted := c.Insert(Line{Addr: line(2), State: Exclusive})
	if !evicted || v.Addr != line(1) {
		t.Fatalf("evicted %#x, want line 1", uint64(v.Addr))
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := New("t", 2*mem.LineBytes, 2)
	c.Insert(Line{Addr: line(0), State: Exclusive})
	c.Insert(Line{Addr: line(1), State: Exclusive})
	present(c, line(0)) // must NOT refresh
	v, _ := c.Insert(Line{Addr: line(2), State: Exclusive})
	if v.Addr != line(0) {
		t.Fatal("Peek refreshed LRU")
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := New("t", 4096, 4)
	c.Insert(Line{Addr: line(3), State: Shared})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate insert")
		}
	}()
	c.Insert(Line{Addr: line(3), State: Shared})
}

func TestSetIndexDistribution(t *testing.T) {
	c := New("t", 4096, 4)
	if c.SetIndex(line(0)) == c.SetIndex(line(1)) {
		t.Fatal("adjacent lines map to the same set")
	}
	if c.SetIndex(line(0)) != c.SetIndex(line(c.sets)) {
		t.Fatal("lines one stride apart map to different sets")
	}
}

func TestCacheInvariantNoDuplicates(t *testing.T) {
	c := New("t", 1024, 2)
	f := func(ops []uint8) bool {
		for _, op := range ops {
			a := line(int(op % 32))
			if !present(c, a) {
				c.Insert(Line{Addr: a, State: Exclusive})
			} else if op%3 == 0 {
				c.take(c.find(a))
			} else {
				c.Lookup(a)
			}
		}
		// No duplicate tags; occupancy within capacity.
		seen := map[mem.PAddr]bool{}
		dup := false
		c.ForEachValid(func(l Line) {
			if seen[l.Addr] {
				dup = true
			}
			seen[l.Addr] = true
		})
		return !dup && countValid(c) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	c := New("t", 2*mem.LineBytes, 2)
	c.Insert(Line{Addr: line(0), State: Modified})
	c.Insert(Line{Addr: line(1), State: Exclusive})
	c.Insert(Line{Addr: line(2), State: Shared}) // evicts M line (dirty)
	s := c.Stats()
	if s.Fills != 3 || s.Evictions != 1 || s.EvictionsDirty != 1 {
		t.Fatalf("stats = %+v", s)
	}
	c.ResetStats()
	if c.Stats().Fills != 0 {
		t.Fatal("ResetStats failed")
	}
	if countValid(c) != 2 {
		t.Fatal("ResetStats touched contents")
	}
}

// --- Hierarchy tests ---

func newHier() *Hierarchy {
	return NewHierarchy(512, 2, 2048, 4) // 8-line L1, 32-line L2
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := newHier()
	if r := h.Access(line(1), false); r.Outcome != Miss {
		t.Fatalf("cold access = %v", r.Outcome)
	}
	h.Fill(line(1), Exclusive, false, 7)
	if r := h.Access(line(1), false); r.Outcome != Hit || r.Level != 1 {
		t.Fatalf("after fill: %+v", r)
	}
	if v := h.Find(line(1)).Version(); v != 7 {
		t.Fatalf("version = %d", v)
	}
}

func TestHierarchySilentEUpgrade(t *testing.T) {
	h := newHier()
	h.Fill(line(1), Exclusive, false, 0)
	if r := h.Access(line(1), true); r.Outcome != Hit {
		t.Fatalf("store to E = %v", r.Outcome)
	}
	if st := h.Find(line(1)).State(); st != Modified {
		t.Fatalf("state after silent upgrade = %v", st)
	}
}

func TestHierarchyUpgradeMissOnShared(t *testing.T) {
	h := newHier()
	h.Fill(line(1), Shared, false, 0)
	if r := h.Access(line(1), true); r.Outcome != UpgradeMiss {
		t.Fatalf("store to S = %v", r.Outcome)
	}
	// The line must be retained pending the upgrade.
	if h.Find(line(1)).State() != Shared {
		t.Fatal("upgrade miss dropped the line")
	}
}

func TestExclusiveHierarchySwap(t *testing.T) {
	h := newHier()
	// Fill L1 beyond capacity so line 0 demotes to L2.
	for i := 0; i < 9; i++ {
		h.Fill(line(i*h.L1().sets), Exclusive, false, 0) // same L1 set
	}
	// One of the early lines must now be in L2, not L1.
	demoted := line(0)
	if present(h.L1(), demoted) {
		t.Skip("line 0 still in L1 under this geometry")
	}
	if !present(h.L2(), demoted) {
		t.Fatal("demoted line not in L2")
	}
	if r := h.Access(demoted, false); r.Outcome != Hit || r.Level != 2 {
		t.Fatalf("L2 hit = %+v", r)
	}
	// Exclusive property: after the swap the line is in L1 only.
	if present(h.L2(), demoted) {
		t.Fatal("line duplicated across levels after swap")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := newHier()
	h.Fill(line(1), Modified, false, 3)
	st, dirty := h.Invalidate(h.Find(line(1)))
	if st != Modified || !dirty {
		t.Fatalf("Invalidate = %v,%v", st, dirty)
	}
	if h.Find(line(1)).State() != Invalid {
		t.Fatal("line survived invalidation")
	}
	if st, dirty := h.Invalidate(h.Find(line(9))); st != Invalid || dirty {
		t.Fatal("invalidate of absent line reported a hit")
	}
}

func TestHierarchyDowngrade(t *testing.T) {
	h := newHier()
	h.Fill(line(1), Modified, false, 0)
	if prev := h.Downgrade(h.Find(line(1))); prev != Modified {
		t.Fatalf("prev = %v", prev)
	}
	if st := h.Find(line(1)).State(); st != Owned {
		t.Fatalf("M downgraded to %v, want O", st)
	}
	h.Fill(line(2), Exclusive, false, 0)
	h.Downgrade(h.Find(line(2)))
	if st := h.Find(line(2)).State(); st != Shared {
		t.Fatalf("E downgraded to %v, want S", st)
	}
}

func TestVictimClassification(t *testing.T) {
	h := NewHierarchy(128, 2, 128, 2) // 2-line L1, 2-line L2, 1 set each
	h.Fill(line(0), Shared, false, 0)
	h.Fill(line(1), Modified, false, 5)
	h.Fill(line(2), Exclusive, false, 0)
	h.Fill(line(3), Exclusive, false, 0)
	// Next fill overflows: L2 victim emerges. Shared victims are silent,
	// M/E victims must be reported.
	var victims []Victim
	victims = append(victims, h.Fill(line(4), Exclusive, false, 0)...)
	victims = append(victims, h.Fill(line(5), Exclusive, false, 0)...)
	for _, v := range victims {
		if v.State == Shared {
			t.Fatalf("shared victim reported: %+v", v)
		}
		if v.State == Modified && v.Version != 5 {
			t.Fatalf("dirty victim lost its version: %+v", v)
		}
	}
}

func TestUpgradeFillInL2(t *testing.T) {
	h := newHier()
	// Place a Shared line, demote it to L2, then grant M.
	h.Fill(line(0), Shared, false, 2)
	for i := 1; i <= 8; i++ {
		h.Fill(line(i*h.L1().sets), Exclusive, false, 0)
	}
	if !present(h.L2(), line(0)) {
		t.Skip("line 0 not demoted under this geometry")
	}
	h.Fill(line(0), Modified, false, 3)
	if st := h.Find(line(0)).State(); st != Modified {
		t.Fatalf("upgrade-in-L2 state = %v", st)
	}
	if !present(h.L1(), line(0)) {
		t.Fatal("upgrade grant did not promote to L1")
	}
}

// TestPackedLine pins a way's host cost: a tag word, a version and an
// LRU tick, 24 bytes, all ways cut from one allocation.
func TestPackedLine(t *testing.T) {
	c := New("t", 4096, 4)
	if n := unsafe.Sizeof(c.tags[0]) + unsafe.Sizeof(c.vers[0]) + unsafe.Sizeof(c.lrus[0]); n != 24 {
		t.Fatalf("a way costs %d bytes, want 24", n)
	}
	// The cache header and one backing array.
	if n := testing.AllocsPerRun(10, func() { New("t", 4096, 4) }); n != 2 {
		t.Fatalf("New allocates %v times, want 2", n)
	}
}

// BenchmarkHierarchyAccessFill drives a Table I hierarchy (32 KiB/4-way
// L1, 256 KiB/4-way L2) with a seeded random mix over four L2s' worth of
// lines, 30% stores, filling every miss: the per-access work of the
// cache layer.
func BenchmarkHierarchyAccessFill(b *testing.B) {
	r := rng.New(1)
	addrs := make([]mem.PAddr, 1<<16)
	writes := make([]bool, len(addrs))
	for i := range addrs {
		addrs[i] = line(r.Intn(4 * (256 << 10) / mem.LineBytes))
		writes[i] = r.Bool(0.3)
	}
	h := NewHierarchy(32<<10, 4, 256<<10, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		if res := h.Access(addrs[j], writes[j]); res.Outcome != Hit {
			st := Exclusive
			if writes[j] {
				st = Modified
			}
			h.Fill(addrs[j], st, false, 0)
		}
	}
}
