package allarm_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	allarm "allarm"
)

// pagesWorkload is one thread that declares pages distinct placement
// pages and makes one access.
func pagesWorkload(t testing.TB, pages int) allarm.Workload {
	t.Helper()
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "pages", Threads: 1,
		Stream: func(int, uint64) allarm.Stream {
			done := false
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if done {
					return allarm.Access{}, false
				}
				done = true
				return allarm.Access{VAddr: 0x40}, true
			})
		},
		Pages: func(fn func(page uint64, thread int)) {
			for i := 0; i < pages; i++ {
				fn(uint64(i)*4096, 0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// smallMemoryConfig is ExperimentConfig with 1 MiB of DRAM per node: 16
// nodes of 256 pages.
func smallMemoryConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.MemMiBPerNode = 1
	return cfg
}

const smallMemoryPages = 16 * 256

// TestRunTraceLargerThanMemory: a trace whose placement section declares
// more pages than the machine has frames fails the run with an error
// instead of panicking the process.
func TestRunTraceLargerThanMemory(t *testing.T) {
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, pagesWorkload(t, smallMemoryPages+1), 1); err != nil {
		t.Fatal(err)
	}
	wl, err := allarm.ReadTraceNamed(&buf, "trace")
	if err != nil {
		t.Fatal(err)
	}
	res, err := allarm.Job{Workload: wl, Config: smallMemoryConfig()}.RunCtx(context.Background())
	if err == nil || !strings.Contains(err.Error(), "physical memory exhausted") {
		t.Fatalf("Run = %v, %v; want a memory-exhausted error", res, err)
	}
	if res != nil || allarm.IsCancellation(err) {
		t.Fatalf("exhaustion returned a result or looks like a cancellation: %v", err)
	}

	// The same footprint less one page fits.
	buf.Reset()
	if err := allarm.CaptureTrace(&buf, pagesWorkload(t, smallMemoryPages), 1); err != nil {
		t.Fatal(err)
	}
	if wl, err = allarm.ReadTraceNamed(&buf, "trace"); err != nil {
		t.Fatal(err)
	}
	if _, err := (allarm.Job{Workload: wl, Config: smallMemoryConfig()}).RunCtx(context.Background()); err != nil {
		t.Fatalf("a footprint that fits failed: %v", err)
	}
}

// TestRunFaultBeyondMemory: a thread that first-touches more pages than
// the machine has frames during the run fails it with an error.
func TestRunFaultBeyondMemory(t *testing.T) {
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "page-walker", Threads: 2,
		Stream: func(thread int, _ uint64) allarm.Stream {
			i := 0
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if i > smallMemoryPages {
					return allarm.Access{}, false
				}
				i++
				return allarm.Access{VAddr: uint64(thread)<<32 + uint64(i)*4096}, true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := allarm.Job{Workload: wl, Config: smallMemoryConfig()}.RunCtx(context.Background())
	if err == nil || !strings.Contains(err.Error(), "physical memory exhausted") {
		t.Fatalf("Run = %v, %v; want a memory-exhausted error", res, err)
	}
	if !strings.HasPrefix(err.Error(), "allarm: page-walker (baseline): ") {
		t.Fatalf("error lacks the run's identity: %v", err)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace decoder. Decoding
// must fail with an error or yield a workload whose streams drain; a
// decoded trace re-captured with CaptureTrace must decode to the same
// placements and the same per-thread warmup and measured streams.
func FuzzReadTrace(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzReadTrace) holds v1, v2,
	// truncated and bad-thread inputs; add one capture of a preset.
	wl, err := allarm.BenchmarkWorkload("barnes", 2, 20)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := allarm.CaptureTrace(&seed, wl, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes()[:min(seed.Len(), 4096)])

	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := allarm.ReadTraceNamed(bytes.NewReader(data), "trace")
		if err != nil {
			return
		}
		if n := wl.Threads(); n < 1 || n > 255 {
			t.Fatalf("decoded %d threads", n)
		}
		var again bytes.Buffer
		if err := allarm.CaptureTrace(&again, wl, 0); err != nil {
			t.Fatalf("re-capture: %v", err)
		}
		re, err := allarm.ReadTraceNamed(&again, "trace")
		if err != nil {
			t.Fatalf("re-captured trace does not decode: %v", err)
		}
		if re.Threads() != wl.Threads() {
			t.Fatalf("threads %d, re-captured %d", wl.Threads(), re.Threads())
		}
		if a, b := placements(wl), placements(re); !bytes.Equal(a, b) {
			t.Fatalf("placements differ after re-capture")
		}
		for th := 0; th < wl.Threads(); th++ {
			sameStream(t, "warmup", wl.WarmupStream(th, 0), re.WarmupStream(th, 0))
			sameStream(t, "measured", wl.Stream(th, 0), re.Stream(th, 0))
		}
	})
}

// placements serializes a workload's ForEachPage declaration in order.
func placements(wl allarm.Workload) []byte {
	var out []byte
	wl.ForEachPage(func(page uint64, thread int) {
		out = binary.LittleEndian.AppendUint64(out, page)
		out = binary.LittleEndian.AppendUint64(out, uint64(thread))
	})
	return out
}

// sameStream drains both streams (either may be nil: no warmup) and
// fails on the first difference.
func sameStream(t *testing.T, label string, a, b allarm.Stream) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one stream is nil", label)
	}
	for i := 0; a != nil; i++ {
		x, okx := a.Next()
		y, oky := b.Next()
		if okx != oky || x != y {
			t.Fatalf("%s access %d: %+v,%v vs %+v,%v", label, i, x, okx, y, oky)
		}
		if !okx {
			return
		}
	}
}
