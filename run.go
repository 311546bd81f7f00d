package allarm

import (
	"fmt"

	"allarm/internal/mem"
	"allarm/internal/system"
	"allarm/internal/workload"
)

// Benchmarks returns the evaluated benchmark names in the paper's
// plotting order (Figures 2–4).
func Benchmarks() []string {
	out := make([]string, len(workload.BenchmarkNames))
	copy(out, workload.BenchmarkNames)
	return out
}

// MultiProcessBenchmarks returns the SPLASH2 subset of the multi-process
// experiment (Figure 4).
func MultiProcessBenchmarks() []string {
	out := make([]string, len(workload.MultiProcessNames))
	copy(out, workload.MultiProcessNames)
	return out
}

// BenchmarkInfo describes one synthetic benchmark preset — the discovery
// record behind DescribeBenchmarks and allarm-serve's GET /v1/benchmarks.
type BenchmarkInfo struct {
	// Name is the preset name Job.Benchmark accepts.
	Name string `json:"name"`
	// PrivateBytes, SharedBytes and GlobalBytes are the preset's region
	// sizes at default scale (per thread, shared, and machine-wide
	// read-mostly respectively); they determine the workload's directory
	// pressure and locality mix.
	PrivateBytes int `json:"private_bytes"`
	SharedBytes  int `json:"shared_bytes"`
	GlobalBytes  int `json:"global_bytes"`
	// MultiProcess marks the SPLASH2 subset usable in Figure 4 mode
	// (Job.MultiProcess).
	MultiProcess bool `json:"multi_process"`
}

// DescribeBenchmarks returns every benchmark preset in the paper's
// plotting order.
func DescribeBenchmarks() []BenchmarkInfo {
	mp := make(map[string]bool, len(workload.MultiProcessNames))
	for _, n := range workload.MultiProcessNames {
		mp[n] = true
	}
	out := make([]BenchmarkInfo, 0, len(workload.BenchmarkNames))
	for _, n := range workload.BenchmarkNames {
		p, ok := workload.Preset(n)
		if !ok {
			continue
		}
		out = append(out, BenchmarkInfo{
			Name:         n,
			PrivateBytes: p.PrivateBytes,
			SharedBytes:  p.SharedBytes,
			GlobalBytes:  p.GlobalBytes,
			MultiProcess: mp[n],
		})
	}
	return out
}

// buildWorkloadMachine constructs the machine and thread specs for a
// workload run: pages pre-placed per the workload's ForEachPage
// declaration, thread i pinned to node i mod Nodes. The construction is
// a deterministic function of (cfg, wl), which is what lets a resumed
// job rebuild byte-identical streams for checkpoint fast-forward.
func buildWorkloadMachine(cfg Config, wl Workload) (*system.Machine, []system.ThreadSpec, error) {
	sysCfg, err := cfg.systemConfig()
	if err != nil {
		return nil, nil, err
	}
	m, err := system.New(sysCfg)
	if err != nil {
		return nil, nil, err
	}
	space := m.NewAddressSpace()
	nodeOf := func(t int) mem.NodeID { return mem.NodeID(t % cfg.Nodes) }
	if err := placePages(space, wl, nodeOf); err != nil {
		return nil, nil, err
	}

	threads := make([]system.ThreadSpec, 0, wl.Threads())
	for t := 0; t < wl.Threads(); t++ {
		threads = append(threads, system.ThreadSpec{
			Node:   nodeOf(t),
			Stream: wl.Stream(t, cfg.Seed),
			Warmup: wl.WarmupStream(t, cfg.Seed),
			Space:  space,
			Name:   fmt.Sprintf("%s/t%d", wl.Name(), t),
		})
	}
	return m, threads, nil
}

// placePages pre-faults wl's pages in space at their first toucher's
// node, modelling the initialisation phase that precedes the measured
// region of interest. A footprint larger than the machine's memory is
// an error.
func placePages(space *mem.AddressSpace, wl Workload, nodeOf func(thread int) mem.NodeID) error {
	var err error
	wl.ForEachPage(func(page uint64, thread int) {
		if err == nil {
			_, err = space.Translate(mem.VAddr(page), nodeOf(thread))
		}
	})
	if err != nil {
		return fmt.Errorf("allarm: %s: placing pages: %w", wl.Name(), err)
	}
	return nil
}

// MultiProcessConfig adapts cfg for the paper's multi-process experiment
// (§III-B): ncopies single-threaded copies of a benchmark, spread evenly
// across the mesh, with each copy's footprint scaled so the 512 KiB probe
// filter is comfortable and smaller filters are not, and per-node DRAM
// scaled so a small fraction of pages falls back to remote nodes (the
// paper's "capacity limitations at a single memory controller").
type MultiProcessConfig struct {
	// Copies is the number of single-threaded processes (paper: 2).
	Copies int
	// FootprintBytes is each process's total data footprint; the private
	// and shared regions of the benchmark are rescaled to fit it.
	FootprintBytes int
	// LocalMemBytes is each node's DRAM capacity; set slightly below
	// FootprintBytes to force best-effort remote fallback allocation.
	LocalMemBytes int
}

// DefaultMultiProcess mirrors the paper's two-copy setup with a footprint
// modestly above the 512 KiB probe-filter coverage.
func DefaultMultiProcess() MultiProcessConfig {
	return MultiProcessConfig{
		Copies:         2,
		FootprintBytes: 640 << 10,
		LocalMemBytes:  576 << 10,
	}
}

// buildMultiProcessMachine validates and constructs the machine and
// thread specs of the Figure 4 multi-process experiment. Like
// buildWorkloadMachine, the construction is deterministic so resumed
// jobs can rebuild identical streams.
func buildMultiProcessMachine(cfg Config, mp MultiProcessConfig, benchmark string) (*system.Machine, []system.ThreadSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if mp.Copies <= 0 || mp.Copies > cfg.Nodes {
		return nil, nil, fmt.Errorf("allarm: copies must be in [1,%d]", cfg.Nodes)
	}
	if mp.FootprintBytes < 8<<10 {
		return nil, nil, fmt.Errorf("allarm: multi-process footprint too small")
	}

	p, ok := workload.Preset(benchmark)
	if !ok {
		return nil, nil, fmt.Errorf("allarm: unknown benchmark %q", benchmark)
	}
	// Rescale the benchmark's regions to the requested footprint,
	// preserving its private/shared balance and page alignment.
	total := float64(p.PrivateBytes + p.SharedBytes)
	scale := float64(mp.FootprintBytes) / total
	pageRound := func(b float64) int {
		n := int(b) &^ (mem.PageBytes - 1)
		if n < mem.PageBytes {
			n = mem.PageBytes
		}
		return n
	}
	p.PrivateBytes = pageRound(float64(p.PrivateBytes) * scale)
	p.SharedBytes = pageRound(float64(p.SharedBytes) * scale)
	p.Threads = 1
	p.AccessesPerThread = cfg.AccessesPerThread

	sysCfg, err := cfg.systemConfig()
	if err != nil {
		return nil, nil, err
	}
	if mp.LocalMemBytes > 0 {
		bytes := (uint64(mp.LocalMemBytes) / mem.PageBytes) * mem.PageBytes
		if bytes < mem.PageBytes {
			bytes = mem.PageBytes
		}
		sysCfg.MemBytesPerNode = bytes
	}
	m, err := system.New(sysCfg)
	if err != nil {
		return nil, nil, err
	}

	spread := cfg.Nodes / mp.Copies
	threads := make([]system.ThreadSpec, 0, mp.Copies)
	for c := 0; c < mp.Copies; c++ {
		wl, err := workload.NewSynthetic(p)
		if err != nil {
			return nil, nil, err
		}
		node := mem.NodeID(c * spread)
		space := m.NewAddressSpace()
		if err := placePages(space, wl, func(int) mem.NodeID { return node }); err != nil {
			return nil, nil, err
		}
		threads = append(threads, system.ThreadSpec{
			Node:   node,
			Stream: wl.Stream(0, cfg.Seed+uint64(c)*7919),
			Warmup: wl.WarmupStream(0, cfg.Seed+uint64(c)*7919),
			Space:  space,
			Name:   fmt.Sprintf("%s/p%d", benchmark, c),
		})
	}
	return m, threads, nil
}
