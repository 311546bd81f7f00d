package workload

import (
	"fmt"
	"sort"
)

// BenchmarkNames lists the evaluated benchmarks in the paper's plotting
// order (Figures 2–4).
var BenchmarkNames = []string{
	"barnes",
	"blackscholes",
	"cholesky",
	"dedup",
	"fluidanimate",
	"ocean-cont",
	"ocean-non-cont",
	"x264",
}

// MultiProcessNames lists the SPLASH2 subset used in the multi-process
// experiment (Figure 4).
var MultiProcessNames = []string{
	"barnes", "cholesky", "ocean-cont", "ocean-non-cont",
}

// Benchmark builds the named benchmark's generator for the given thread
// count and per-thread access budget. The parameterisations are
// calibrated so that the simulated local/remote directory-request mix
// approximates Figure 2 of the paper (`allarm-sim -exp fig2` prints
// the measured mix next to each benchmark).
func Benchmark(name string, threads, accesses int) (*Synthetic, error) {
	p, ok := presets[name]
	if !ok {
		names := make([]string, 0, len(presets))
		for n := range presets {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
	}
	p.Threads = threads
	p.AccessesPerThread = accesses
	return newSynthetic(p, presetHot[name])
}

// presetHot holds each preset's HotOwner Zipf table, so a process builds
// it once, not once per job. Threads and the access budget, the only
// parameters Benchmark sets, do not shape the table.
var presetHot = func() map[string]*hotTable {
	m := make(map[string]*hotTable, len(presets))
	for name := range presets {
		m[name] = new(hotTable)
	}
	return m
}()

const (
	kib = 1024
	mib = 1024 * kib
)

// presets encode each benchmark's memory personality. The quantities that
// matter (per the paper's analysis):
//
//   - PrivateBytes vs the 256 KiB L2 controls the local capacity-miss
//     rate and hence the local share of directory requests;
//   - Init placement controls which directory is home to shared misses;
//   - Pattern/fractions control coherence (sharing) misses.
var presets = map[string]Params{
	// Octree N-body: a cache-resident set of bodies per thread (updated
	// every timestep but hitting in cache, so its probe-filter entries go
	// LRU-stale — the baseline's preferred back-invalidation victims), a
	// streaming private remainder, and a shared tree homed at two nodes.
	"barnes": {
		Name: "barnes", PrivateBytes: 112 * kib, PrivateFrac: 0.40,
		PrivateWriteFrac: 0.30, PrivateHot: 0.72, SeqRunFrac: 0.55,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.06,
		GlobalBytes: 224 * kib, GlobalFrac: 0.22, GlobalHot: 0.90, GlobalHomeNodes: 2,
		Pattern: Uniform, Init: PartitionedInit,
		Think: 2 * Nanosecond, ThinkJitter: 2 * Nanosecond,
	},
	// Option pricing: option data initialised by thread 0 (homed at node
	// 0) and streamed by everyone — node 0's directory takes the whole
	// machine's tracking load, the pattern behind the benchmark's
	// probe-filter-size sensitivity (Figure 3h).
	"blackscholes": {
		Name: "blackscholes", PrivateBytes: 32 * kib, PrivateFrac: 0.40,
		PrivateWriteFrac: 0.25, PrivateHot: 0.85, SeqRunFrac: 0.70,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.02, SharedHot: 0.45,
		GlobalBytes: 192 * kib, GlobalFrac: 0.14, GlobalHot: 0.90, GlobalHomeNodes: 1,
		Pattern: HotOwner, Init: OwnerInit,
		Think: 3 * Nanosecond, ThinkJitter: 2 * Nanosecond,
	},
	// Sparse Cholesky factorisation: panels migrate between threads (the
	// coherence-miss driver) over a resident frontal working set.
	"cholesky": {
		Name: "cholesky", PrivateBytes: 96 * kib, PrivateFrac: 0.42,
		PrivateWriteFrac: 0.30, PrivateHot: 0.70, SeqRunFrac: 0.60,
		SharedBytes: 512 * kib, SharedWriteFrac: 0.35,
		GlobalBytes: 224 * kib, GlobalFrac: 0.18, GlobalHot: 0.90, GlobalHomeNodes: 2,
		Pattern: Migratory, Init: PartitionedInit,
		BlockLines: 64, BlockRun: 96,
		Think: 2 * Nanosecond, ThinkJitter: 2 * Nanosecond,
	},
	// Deduplication pipeline: bounded queues between stages, hash tables
	// larger than one L2 streaming locally.
	"dedup": {
		Name: "dedup", PrivateBytes: 112 * kib, PrivateFrac: 0.38,
		PrivateWriteFrac: 0.35, PrivateHot: 0.60, SeqRunFrac: 0.55,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.40, UpstreamFrac: 0.45,
		GlobalBytes: 224 * kib, GlobalFrac: 0.14, GlobalHot: 0.90, GlobalHomeNodes: 2,
		Pattern: Pipeline, Init: InterleavedInit,
		Think: 2 * Nanosecond, ThinkJitter: 2 * Nanosecond,
	},
	// Particle fluid simulation: working set far beyond the caches, so
	// capacity misses dominate and ALLARM's local-probe overhead is all
	// it feels — the paper's slowdown case. Structures spread over eight
	// homes keep directory pressure (and thus ALLARM's gains) minimal.
	"fluidanimate": {
		Name: "fluidanimate", PrivateBytes: 320 * kib, PrivateFrac: 0.52,
		PrivateWriteFrac: 0.35, PrivateHot: 0.10, SeqRunFrac: 0.85,
		SharedBytes: 1 * mib, SharedWriteFrac: 0.25, NeighborFrac: 0.40,
		GlobalBytes: 128 * kib, GlobalFrac: 0.06, GlobalHot: 0.85, GlobalHomeNodes: 8,
		Pattern: Stencil, Init: PartitionedInit,
		Think: 1 * Nanosecond, ThinkJitter: 1 * Nanosecond,
	},
	// Red-black ocean solver, contiguous partitions: each thread's grid
	// partition fits its caches and is re-swept every iteration — it hits
	// in cache, generates no directory refreshes, and is therefore
	// exactly what baseline back-invalidations destroy. ALLARM leaves it
	// untracked: the paper's best case.
	"ocean-cont": {
		Name: "ocean-cont", PrivateBytes: 72 * kib, PrivateFrac: 0.30,
		PrivateWriteFrac: 0.30, PrivateHot: 0.35, SeqRunFrac: 0.85,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.33, NeighborFrac: 0.22,
		GlobalBytes: 224 * kib, GlobalFrac: 0.22, GlobalHot: 0.90, GlobalHomeNodes: 2,
		Pattern: Stencil, Init: PartitionedInit,
		Think: 2 * Nanosecond, ThinkJitter: 1 * Nanosecond,
	},
	// Non-contiguous ocean: strided rows — worse spatial locality, more
	// boundary traffic, same NUMA homing.
	"ocean-non-cont": {
		Name: "ocean-non-cont", PrivateBytes: 72 * kib, PrivateFrac: 0.30,
		PrivateWriteFrac: 0.30, PrivateHot: 0.35, SeqRunFrac: 0.50,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.33, NeighborFrac: 0.30,
		GlobalBytes: 224 * kib, GlobalFrac: 0.22, GlobalHot: 0.88, GlobalHomeNodes: 2,
		Pattern: Stencil, Init: PartitionedInit,
		Think: 2 * Nanosecond, ThinkJitter: 1 * Nanosecond,
	},
	// H.264 encoder: macroblock-row threads reading reference frames
	// (homed at the producers' two nodes) through bounded queues.
	"x264": {
		Name: "x264", PrivateBytes: 64 * kib, PrivateFrac: 0.36,
		PrivateWriteFrac: 0.30, PrivateHot: 0.75, SeqRunFrac: 0.70,
		SharedBytes: 768 * kib, SharedWriteFrac: 0.20, UpstreamFrac: 0.55,
		GlobalBytes: 256 * kib, GlobalFrac: 0.17, GlobalHot: 0.88, GlobalHomeNodes: 2,
		Pattern: Pipeline, Init: InterleavedInit,
		Think: 2 * Nanosecond, ThinkJitter: 2 * Nanosecond,
	},
}

// Preset returns a copy of a benchmark's raw parameters (tests and
// documentation).
func Preset(name string) (Params, bool) {
	p, ok := presets[name]
	return p, ok
}
