package allarm_test

import (
	"context"
	"runtime"
	"testing"

	allarm "allarm"
)

// TestSimulationAllocs bounds what one small simulation of the paper's
// thread-local case (ocean-cont under ALLARM, 2,000 accesses per thread)
// allocates. It measured 1,513,600 bytes in 887 allocations (go1.24,
// linux/amd64); the bounds sit under 10% above that. So a change fails
// here if it brings back a per-write or per-line table, such as a hash
// table of DRAM versions (1,887,700 bytes), or per-controller message
// pools and wrapper records that carry a message through the event
// queue (1,554,416 bytes in 1,669 allocations). The race runtime adds
// under 1% to either count. The least of two runs is taken, so garbage
// from goroutines other tests left running cannot fail it.
func TestSimulationAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 1_660_000, 970
	cfg := allarm.ExperimentConfig()
	cfg.Policy = allarm.ALLARM
	cfg.AccessesPerThread = 2000
	job := allarm.Job{Benchmark: "ocean-cont", Config: cfg}
	bytes, allocs := ^uint64(0), ^uint64(0)
	for range 2 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := job.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("one simulation allocated %d bytes in %d allocations, want at most %d bytes in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
