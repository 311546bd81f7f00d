package workload

import (
	"sync"
	"testing"
	"testing/quick"

	"allarm/internal/mem"
)

func testParams() Params {
	return Params{
		Name: "test", Threads: 4, AccessesPerThread: 2000,
		PrivateBytes: 64 << 10, PrivateFrac: 0.5,
		PrivateWriteFrac: 0.3, PrivateHot: 0.5, SeqRunFrac: 0.5,
		SharedBytes: 256 << 10, SharedWriteFrac: 0.3,
		GlobalBytes: 64 << 10, GlobalFrac: 0.2, GlobalHot: 0.8, GlobalHomeNodes: 2,
		Pattern: Stencil, Init: PartitionedInit, NeighborFrac: 0.2,
		Think: 2 * Nanosecond,
	}
}

func TestStreamLengthAndBounds(t *testing.T) {
	w := MustSynthetic(testParams())
	s := w.Stream(1, 7)
	n := 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		n++
		switch {
		case a.VAddr >= PrivateBase(1) && a.VAddr < PrivateBase(2):
			// private arena ok
		case a.VAddr >= GlobalBase() && a.VAddr < GlobalBase()+uint64(w.p.GlobalBytes):
			// global arena ok
		case a.VAddr >= SharedBase() && a.VAddr < SharedBase()+uint64(w.p.SharedBytes):
			// shared arena ok
		default:
			t.Fatalf("access %#x outside any arena", uint64(a.VAddr))
		}
	}
	if n != 2000 {
		t.Fatalf("stream produced %d accesses", n)
	}
}

func TestStreamDeterminism(t *testing.T) {
	w := MustSynthetic(testParams())
	a, b := w.Stream(2, 42), w.Stream(2, 42)
	for i := 0; i < 2000; i++ {
		x, okx := a.Next()
		y, oky := b.Next()
		if okx != oky || x != y {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestStreamsDifferAcrossThreadsAndSeeds(t *testing.T) {
	w := MustSynthetic(testParams())
	same := 0
	a, b := w.Stream(0, 1), w.Stream(1, 1)
	for i := 0; i < 100; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x.VAddr == y.VAddr {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("threads replay the same addresses (%d/100)", same)
	}
}

func TestForEachPagePlacement(t *testing.T) {
	p := testParams()
	w := MustSynthetic(p)
	privPages, globalPages, sharedPages := 0, 0, 0
	w.ForEachPage(func(page uint64, thread int) {
		if thread < 0 || thread >= p.Threads {
			t.Fatalf("page %#x assigned to thread %d", uint64(page), thread)
		}
		switch {
		case page >= SharedBase():
			sharedPages++
		case page >= GlobalBase():
			globalPages++
			// Global homes concentrate on the first k threads.
			if thread >= p.GlobalHomeNodes {
				t.Fatalf("global page homed at thread %d, want < %d", thread, p.GlobalHomeNodes)
			}
		default:
			privPages++
			want := int((page - privateBase) / privateStride)
			if thread != want {
				t.Fatalf("private page %#x at thread %d, want %d", uint64(page), thread, want)
			}
		}
	})
	if privPages != 4*64<<10/mem.PageBytes {
		t.Fatalf("private pages %d", privPages)
	}
	if globalPages != 64<<10/mem.PageBytes {
		t.Fatalf("global pages %d", globalPages)
	}
	if sharedPages != 256<<10/mem.PageBytes {
		t.Fatalf("shared pages %d", sharedPages)
	}
}

func TestOwnerInitPlacesAtThreadZero(t *testing.T) {
	p := testParams()
	p.Init = OwnerInit
	w := MustSynthetic(p)
	w.ForEachPage(func(page uint64, thread int) {
		if page >= SharedBase() && thread != 0 {
			t.Fatalf("owner-init shared page at thread %d", thread)
		}
	})
}

func TestWarmupCoversRegions(t *testing.T) {
	w := MustSynthetic(testParams())
	s := w.WarmupStream(0, 1)
	priv, global, shared := false, false, false
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		switch {
		case a.VAddr >= SharedBase():
			shared = true
		case a.VAddr >= GlobalBase():
			global = true
		default:
			priv = true
		}
		if a.Think != 0 {
			t.Fatal("warmup access has think time")
		}
	}
	if !priv || !global || !shared {
		t.Fatalf("warmup coverage: priv=%v global=%v shared=%v", priv, global, shared)
	}
}

func TestAllPresetsValid(t *testing.T) {
	for _, name := range BenchmarkNames {
		w, err := Benchmark(name, 16, 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Streams must be drainable and in-bounds.
		s := w.Stream(3, 5)
		for i := 0; i < 1000; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("%s: stream ended early at %d", name, i)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%s: stream overran its budget", name)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("nope", 16, 100); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidationRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.Threads = 0 },
		func(p *Params) { p.AccessesPerThread = 0 },
		func(p *Params) { p.PrivateFrac = 1.5 },
		func(p *Params) { p.SharedWriteFrac = -0.1 },
		func(p *Params) { p.SharedBytes = 100 }, // not page-aligned
		func(p *Params) { p.GlobalFrac = 0.8 },  // 0.8+0.5 > 1
		func(p *Params) { p.GlobalBytes = 0; p.GlobalFrac = 0.1 },
		func(p *Params) { p.Threads = 21 },
	}
	for i, mutate := range bad {
		p := testParams()
		mutate(&p)
		if _, err := NewSynthetic(p); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestAccessesAreWordAligned(t *testing.T) {
	for _, name := range BenchmarkNames {
		w := MustBenchmark(name, 16, 500)
		s := w.Stream(0, 9)
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if uint64(a.VAddr)%wordBytes != 0 {
				t.Fatalf("%s: unaligned access %#x", name, uint64(a.VAddr))
			}
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[SharePattern]string{
		Uniform: "uniform", HotOwner: "hot-owner", Stencil: "stencil",
		Pipeline: "pipeline", Migratory: "migratory",
	} {
		if p.String() != want {
			t.Fatalf("pattern %d = %q", p, p.String())
		}
	}
}

func TestStreamBoundsProperty(t *testing.T) {
	w := MustSynthetic(testParams())
	f := func(seed uint64, thread uint8) bool {
		th := int(thread) % 4
		s := w.Stream(th, seed)
		for i := 0; i < 200; i++ {
			a, ok := s.Next()
			if !ok {
				return false
			}
			in := (a.VAddr >= PrivateBase(th) && a.VAddr < PrivateBase(th)+uint64(64<<10)) ||
				(a.VAddr >= GlobalBase() && a.VAddr < GlobalBase()+uint64(64<<10)) ||
				(a.VAddr >= SharedBase() && a.VAddr < SharedBase()+uint64(256<<10))
			if !in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHotOwnerStreamsShareOneZipfTable(t *testing.T) {
	p := testParams()
	p.Pattern, p.Init, p.SharedHot = HotOwner, OwnerInit, 0.9
	w := MustSynthetic(p)
	var wg sync.WaitGroup
	streams := make([]Stream, p.Threads)
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i] = w.Stream(i, 9)
		}()
	}
	wg.Wait()
	table := &w.hot[0]
	w.Stream(0, 9)
	if &w.hot[0] != table || len(w.hot) != 4096 {
		t.Fatal("a later stream rebuilt the Zipf table")
	}
	// Sampling a shared table replays a private one exactly.
	for i, s := range streams {
		own := MustSynthetic(p).Stream(i, 9)
		for j := 0; j < p.AccessesPerThread; j++ {
			x, _ := s.Next()
			y, _ := own.Next()
			if x != y {
				t.Fatalf("thread %d diverges at access %d: %+v vs %+v", i, j, x, y)
			}
		}
	}
}
