package allarm

import (
	"fmt"

	"allarm/internal/core"
	"allarm/internal/noc"
	"allarm/internal/sim"
	"allarm/internal/system"
)

// MemPolicy selects the OS page-placement policy. FirstTouch is the
// only policy modelled; the type stays because Job.Key prints the
// Config field ("MemPolicy:0"), and that key addresses result stores
// and checkpoint fingerprints.
type MemPolicy int

// FirstTouch places a page at the first toucher's node (the default of
// mainstream operating systems; ALLARM's assumption).
const FirstTouch MemPolicy = 0

// Config describes one simulated machine and workload scale. The zero
// value is invalid; start from DefaultConfig (the paper's Table I).
type Config struct {
	// Threads is the software thread count (Table I: 16, one per node).
	Threads int
	// AccessesPerThread is each thread's region-of-interest length.
	AccessesPerThread int
	// Seed makes runs reproducible; the same seed with the same Config
	// yields a bit-identical simulation.
	Seed uint64

	// Policy selects the directory allocation policy (machine-wide) by
	// registry name: Baseline, ALLARM, ALLARMHyst or any name added with
	// RegisterPolicy. The zero value means Baseline.
	Policy Policy
	// ALLARMRanges optionally restricts ALLARM to physical address
	// ranges (the paper's boot-time range registers). Empty = all.
	ALLARMRanges []AddrRange
	// MemPolicy is the OS placement policy. It must be FirstTouch, the
	// paper's; the field stays for Job.Key's format (see MemPolicy).
	MemPolicy MemPolicy

	// Machine geometry (Table I).
	Nodes        int
	MeshW, MeshH int

	// Cache organisation, bytes and ways (Table I: 32 KiB/4, 256 KiB/4).
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int

	// PFBytes is the cached-data coverage of each node's probe filter
	// (Table I: 512 KiB = 2× one L2); PFWays its associativity.
	PFBytes, PFWays int

	// Latencies in nanoseconds (Table I: 1 ns caches and directory,
	// 60 ns DRAM, 10 ns links).
	CacheNs, DirNs, DRAMNs, LinkNs float64
	// DRAMIntervalNs is the minimum spacing between DRAM requests at one
	// controller (bandwidth); 0 = unlimited.
	DRAMIntervalNs float64

	// NoC parameters (Table I: 8 GB/s links, 4-byte flits, 8-byte
	// control and 72-byte data messages).
	LinkBytesPerNs             float64
	FlitBytes                  int
	CtrlMsgBytes, DataMsgBytes int

	// MemMiBPerNode is per-node DRAM capacity in MiB (Table I: 128).
	MemMiBPerNode int

	// CheckInvariants enables the coherence validator (tests).
	CheckInvariants bool
	// MaxEvents bounds a run as a deadlock guard (0 = library default).
	MaxEvents uint64
}

// AddrRange is a physical address range [Start, End) for ALLARM's range
// registers.
type AddrRange struct{ Start, End uint64 }

// DefaultConfig returns the paper's Table I system with a workload scale
// suitable for laptop-class runs (the paper itself scales inputs down;
// see the Experiments section of README.md).
func DefaultConfig() Config {
	return Config{
		Threads:           16,
		AccessesPerThread: 60_000,
		Seed:              1,
		Policy:            Baseline,
		MemPolicy:         FirstTouch,

		Nodes: 16, MeshW: 4, MeshH: 4,
		L1Bytes: 32 << 10, L1Ways: 4,
		L2Bytes: 256 << 10, L2Ways: 4,
		PFBytes: 512 << 10, PFWays: 4,

		CacheNs: 1, DirNs: 1, DRAMNs: 60, LinkNs: 10,
		DRAMIntervalNs: 4,

		LinkBytesPerNs: 8,
		FlitBytes:      4,
		CtrlMsgBytes:   8,
		DataMsgBytes:   72,

		MemMiBPerNode: 128,

		MaxEvents: 2_000_000_000,
	}
}

// Validate reports the first inconsistency in the configuration,
// including the benchmark scale fields (Threads, AccessesPerThread) the
// preset runners consume. Workload-driven runs (Run with an explicit
// Workload) take their scale from the workload and only need
// validateMachine.
func (c Config) Validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("allarm: threads must be positive")
	}
	if c.Threads > c.Nodes {
		// One in-order core per node, one outstanding access per core: a
		// second thread on a node would trip the cache controller's MSHR
		// guard mid-run. Reject it up front, like Run does for Workloads.
		return fmt.Errorf("allarm: %d threads exceed the machine's %d nodes", c.Threads, c.Nodes)
	}
	if c.AccessesPerThread <= 0 {
		return fmt.Errorf("allarm: accesses per thread must be positive")
	}
	return c.validateMachine()
}

// validateMachine checks the machine description (everything except the
// preset-workload scale fields).
func (c Config) validateMachine() error {
	if c.MemMiBPerNode <= 0 {
		return fmt.Errorf("allarm: per-node memory must be positive")
	}
	if c.MemPolicy != FirstTouch {
		return fmt.Errorf("allarm: memory policy %d is not modelled; only FirstTouch (0) is", c.MemPolicy)
	}
	sys, err := c.systemConfig()
	if err != nil {
		return err
	}
	return sys.Validate()
}

// ExperimentScale is the SRAM scaling divisor of the reproduction
// harness: the paper scales caches down with its (already reduced)
// inputs (§III); our runs are shorter still, so the harness divides every
// SRAM capacity by this factor, preserving all ratios (the probe filter
// stays 2× one L2, the L1:L2 ratio stays 1:8).
const ExperimentScale = 4

// ExperimentConfig returns the configuration used by the experiment
// harness: Table I with all SRAM capacities divided by ExperimentScale.
// See the Experiments section of README.md for the methodology note.
func ExperimentConfig() Config {
	c := DefaultConfig()
	c.L1Bytes /= ExperimentScale
	c.L2Bytes /= ExperimentScale
	c.PFBytes /= ExperimentScale
	// The scaled machine keeps Table I latencies; the memory controller's
	// service interval matches one line at 8 GB/s, so back-invalidation
	// refill/writeback storms queue at hot home nodes as they do in the
	// evaluated system.
	c.DRAMIntervalNs = 8
	return c
}

func ns(v float64) sim.Time { return sim.Time(v * float64(sim.Nanosecond)) }

// systemConfig lowers the public Config to the internal machine config,
// resolving the allocation policy against the registry.
func (c Config) systemConfig() (system.Config, error) {
	var ranges *core.RangeSet
	if len(c.ALLARMRanges) > 0 {
		rs := make([]core.AddrRange, 0, len(c.ALLARMRanges))
		for _, r := range c.ALLARMRanges {
			rs = append(rs, core.AddrRange(r))
		}
		set, err := core.NewRangeSet(rs...)
		if err != nil {
			return system.Config{}, err
		}
		ranges = set
	}
	alloc, err := c.allocFactory(ranges)
	if err != nil {
		return system.Config{}, err
	}
	return system.Config{
		Nodes: c.Nodes, MeshW: c.MeshW, MeshH: c.MeshH,
		L1Bytes: c.L1Bytes, L1Ways: c.L1Ways,
		L2Bytes: c.L2Bytes, L2Ways: c.L2Ways,
		PFCoverage: c.PFBytes, PFWays: c.PFWays,
		Alloc:        alloc,
		AllocName:    c.Policy.String(),
		CacheLatency: ns(c.CacheNs), DirLatency: ns(c.DirNs),
		DRAMLatency: ns(c.DRAMNs), DRAMInterval: ns(c.DRAMIntervalNs),
		NoC: noc.Config{
			Width: c.MeshW, Height: c.MeshH,
			LinkLatency:   ns(c.LinkNs),
			LinkBandwidth: c.LinkBytesPerNs,
			FlitBytes:     c.FlitBytes,
			ControlBytes:  c.CtrlMsgBytes,
			DataBytes:     c.DataMsgBytes,
			LocalLatency:  ns(c.CacheNs),
		},
		MemBytesPerNode: uint64(c.MemMiBPerNode) << 20,
		CheckInvariants: c.CheckInvariants,
		MaxEvents:       c.MaxEvents,
	}, nil
}
