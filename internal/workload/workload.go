// Package workload models the memory behaviour of the paper's SPLASH2 and
// Parsec benchmarks as parameterised synthetic access-stream generators.
//
// Real benchmark binaries cannot run on this substrate, so each benchmark
// is replaced by a generator calibrated to reproduce the three drivers of
// the paper's results:
//
//  1. the local/remote request mix observed at directories (Figure 2),
//  2. working-set size relative to the private caches (capacity misses),
//  3. the sharing topology (owner-init, stencil, pipeline, migratory).
//
// Streams are deterministic functions of (benchmark, thread, seed), so
// whole-machine simulations are bit-reproducible.
package workload

import (
	"fmt"

	"allarm/internal/mem"
)

// Duration is simulated time in integer picoseconds, the simulator's
// tick, so that workload round trips (capture, replay, programmatic
// generation) never quantise.
type Duration int64

// Duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
)

// Access is one memory reference of a workload thread.
type Access struct {
	// VAddr is the virtual address referenced (any byte of the line;
	// lines are 64 bytes, pages 4 KiB).
	VAddr uint64
	// Write distinguishes stores from loads.
	Write bool
	// Think is the core compute time preceding the access (non-memory
	// instructions).
	Think Duration
}

// Stream produces one thread's access sequence. Next returns ok == false
// when the thread's region of interest ends.
type Stream interface {
	Next() (Access, bool)
}

// StreamFunc adapts a closure to Stream, for compact programmatic
// generators.
type StreamFunc func() (Access, bool)

// Next implements Stream.
func (f StreamFunc) Next() (Access, bool) { return f() }

// Workload is a multi-threaded memory workload the simulator can run.
// Three kinds ship with the module: the synthetic benchmark presets
// (Synthetic), trace replays (trace.Replay) and the facade's
// programmatic generators; any other implementation is accepted too.
//
// Thread i is pinned to node i mod the machine's node count, so a
// workload's thread count must not exceed it (the modelled cores are
// in-order with one outstanding access).
type Workload interface {
	// Name identifies the workload in results, tables and errors.
	Name() string
	// Threads is the workload's thread count.
	Threads() int
	// Stream returns thread's deterministic measured access stream;
	// distinct seeds give independent executions (replays may ignore the
	// seed).
	Stream(thread int, seed uint64) Stream
	// WarmupStream returns thread's initialisation pass, replayed before
	// the measured region of interest (statistics are reset at the
	// boundary), or nil for none.
	WarmupStream(thread int, seed uint64) Stream
	// ForEachPage declares the workload's page-placement regions: fn is
	// called once per page of the footprint with the thread that first
	// touches it during initialisation, and the simulator pre-faults the
	// page at that thread's node (the paper's first-touch methodology).
	// Implementations without an initialisation phase may do nothing:
	// pages then fault at their first toucher during the run.
	ForEachPage(fn func(page uint64, thread int))
}

// Layout constants for the synthetic virtual address space. Private
// arenas are spaced far apart so threads never share a page; the shared
// arena sits above all private arenas.
const (
	privateBase   uint64 = 0x1000_0000
	privateStride uint64 = 0x0400_0000 // 64 MiB per thread arena
	globalBase    uint64 = 0x6000_0000
	sharedBase    uint64 = 0x8000_0000
)

// PrivateBase returns thread t's private arena base address.
func PrivateBase(t int) uint64 {
	return privateBase + uint64(t)*privateStride
}

// GlobalBase returns the read-shared (global) arena base address.
func GlobalBase() uint64 { return globalBase }

// SharedBase returns the shared arena base address.
func SharedBase() uint64 { return sharedBase }

// validate panics on nonsensical generator parameters; workloads are
// constructed from trusted presets and explicit test inputs.
func validateParams(p Params) error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: missing name")
	case p.Threads <= 0:
		return fmt.Errorf("workload %s: threads must be positive", p.Name)
	case p.AccessesPerThread <= 0:
		return fmt.Errorf("workload %s: accesses must be positive", p.Name)
	case p.PrivateBytes < mem.PageBytes:
		return fmt.Errorf("workload %s: private region smaller than a page", p.Name)
	case p.SharedBytes < mem.PageBytes:
		return fmt.Errorf("workload %s: shared region smaller than a page", p.Name)
	case p.PrivateFrac < 0 || p.PrivateFrac > 1:
		return fmt.Errorf("workload %s: private fraction out of range", p.Name)
	case p.PrivateWriteFrac < 0 || p.PrivateWriteFrac > 1,
		p.SharedWriteFrac < 0 || p.SharedWriteFrac > 1:
		return fmt.Errorf("workload %s: write fraction out of range", p.Name)
	case p.SeqRunFrac < 0 || p.SeqRunFrac > 1:
		return fmt.Errorf("workload %s: sequential-run fraction out of range", p.Name)
	case uint64(p.SharedBytes)%mem.PageBytes != 0:
		return fmt.Errorf("workload %s: shared bytes must be page-aligned", p.Name)
	case uint64(p.PrivateBytes)%mem.PageBytes != 0:
		return fmt.Errorf("workload %s: private bytes must be page-aligned", p.Name)
	case p.GlobalBytes < 0 || (p.GlobalBytes > 0 && uint64(p.GlobalBytes)%mem.PageBytes != 0):
		return fmt.Errorf("workload %s: global bytes must be page-aligned", p.Name)
	case p.GlobalFrac < 0 || p.GlobalFrac+p.PrivateFrac > 1:
		return fmt.Errorf("workload %s: global+private fractions exceed 1", p.Name)
	case p.GlobalFrac > 0 && p.GlobalBytes == 0:
		return fmt.Errorf("workload %s: global fraction without a global region", p.Name)
	case p.Threads > 20:
		return fmt.Errorf("workload %s: private arenas overrun the global arena above 20 threads", p.Name)
	}
	return nil
}
