package allarm

import (
	"fmt"

	"allarm/internal/workload"
)

// Duration is simulated time in integer picoseconds — the simulator's
// tick, exposed exactly so that workload round trips (capture, replay,
// programmatic generation) never quantise.
type Duration = workload.Duration

// Duration units.
const (
	Picosecond  = workload.Picosecond
	Nanosecond  = workload.Nanosecond
	Microsecond = workload.Microsecond
)

// Access is one memory reference of a workload thread: the virtual
// address referenced (any byte of the line; lines are 64 bytes, pages
// 4 KiB), whether it is a store, and the core compute time preceding it.
type Access = workload.Access

// Stream produces one thread's access sequence. Next returns ok == false
// when the thread's region of interest ends.
type Stream = workload.Stream

// StreamFunc adapts a closure to Stream, for compact programmatic
// generators.
type StreamFunc = workload.StreamFunc

// Workload is a multi-threaded memory workload the simulator can run:
// the first-class input of Run and sweep jobs, and the same interface
// the simulator consumes internally. Three kinds ship with the package —
// the synthetic benchmark presets (BenchmarkWorkload), trace replays
// (LoadTrace) and user-programmatic generators (NewWorkload) — and any
// user implementation is accepted.
//
// Thread i is pinned to node i mod Config.Nodes, so a workload's thread
// count must not exceed the machine's node count (the modelled cores are
// in-order with one outstanding access). ForEachPage declares the
// page-placement regions: the simulator pre-faults each page at its
// first toucher's node before the run (the paper's first-touch
// methodology).
type Workload = workload.Workload

// Keyer is optionally implemented by workloads to fingerprint the exact
// simulation they produce. Sweep.Dedup treats two jobs with equal keys
// (and equal configurations) as the same simulation; without a Key, a
// workload is fingerprinted by name and thread count only.
type Keyer interface {
	Key() string
}

// BenchmarkWorkload returns the named synthetic benchmark preset (see
// Benchmarks and MultiProcessBenchmarks) scaled to the given thread
// count and per-thread access budget. Its Key (see Keyer) is fully
// determined by name, threads and access budget.
func BenchmarkWorkload(name string, threads, accessesPerThread int) (Workload, error) {
	w, err := workload.Benchmark(name, threads, accessesPerThread)
	if err != nil {
		return nil, err // not a typed nil in a non-nil Workload
	}
	return w, nil
}

// WorkloadSpec builds a programmatic Workload from plain functions — the
// escape hatch for access patterns the presets don't model.
type WorkloadSpec struct {
	// Name identifies the workload (required).
	Name string
	// Threads is the thread count (required, 1..255).
	Threads int
	// Stream returns thread's measured access stream (required).
	Stream func(thread int, seed uint64) Stream
	// Warmup returns thread's initialisation pass (optional; nil field
	// or nil returned stream mean no warmup).
	Warmup func(thread int, seed uint64) Stream
	// Pages declares page placement (optional; see
	// Workload.ForEachPage).
	Pages func(fn func(page uint64, thread int))
	// Key fingerprints the simulation for Sweep.Dedup (optional).
	Key string
}

// NewWorkload validates the spec and returns the workload.
func NewWorkload(spec WorkloadSpec) (Workload, error) {
	switch {
	case spec.Name == "":
		return nil, fmt.Errorf("allarm: workload needs a name")
	case spec.Threads <= 0 || spec.Threads > 255:
		return nil, fmt.Errorf("allarm: workload %q thread count %d out of range [1,255]", spec.Name, spec.Threads)
	case spec.Stream == nil:
		return nil, fmt.Errorf("allarm: workload %q needs a Stream function", spec.Name)
	}
	return &funcWorkload{spec: spec}, nil
}

// funcWorkload is the Workload behind NewWorkload.
type funcWorkload struct {
	spec WorkloadSpec
}

// Name implements Workload.
func (w *funcWorkload) Name() string { return w.spec.Name }

// Threads implements Workload.
func (w *funcWorkload) Threads() int { return w.spec.Threads }

// Stream implements Workload.
func (w *funcWorkload) Stream(thread int, seed uint64) Stream {
	return w.spec.Stream(thread, seed)
}

// WarmupStream implements Workload.
func (w *funcWorkload) WarmupStream(thread int, seed uint64) Stream {
	if w.spec.Warmup == nil {
		return nil
	}
	return w.spec.Warmup(thread, seed)
}

// ForEachPage implements Workload.
func (w *funcWorkload) ForEachPage(fn func(page uint64, thread int)) {
	if w.spec.Pages != nil {
		w.spec.Pages(fn)
	}
}

// Key implements Keyer when the spec carries one.
func (w *funcWorkload) Key() string {
	if w.spec.Key != "" {
		return "func:" + w.spec.Key
	}
	return fmt.Sprintf("func:%s#%d", w.spec.Name, w.spec.Threads)
}
