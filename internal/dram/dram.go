// Package dram models one node's memory controller and DRAM block: a
// fixed access latency (Table I: 60 ns) plus a service-rate queue that
// bounds bandwidth. Each node of the simulated machine owns one
// Controller fronting its 128 MiB DRAM slice.
//
// The controller is callback-free by design: Read and Write return the
// operation's completion time and the caller schedules its own
// continuation — the directory controller uses a pooled sim.Handler
// record per completion, keeping DRAM accesses off the allocator's hot
// path.
package dram

import "allarm/internal/sim"

// Stats counts DRAM operations.
type Stats struct {
	Reads  uint64
	Writes uint64
	// QueueDelay accumulates time requests spent waiting for the
	// controller (contention), for utilisation diagnostics.
	QueueDelay sim.Time
}

// Controller is one node's memory controller. The zero value is unusable;
// construct with New.
type Controller struct {
	latency  sim.Time
	interval sim.Time // minimum spacing between request starts (bandwidth)
	nextFree sim.Time
	stats    Stats
}

// New builds a controller with the given access latency and minimum
// inter-request interval. interval == 0 models unlimited bandwidth.
func New(latency, interval sim.Time) *Controller {
	if latency < 0 || interval < 0 {
		panic("dram: negative timing parameter")
	}
	return &Controller{latency: latency, interval: interval}
}

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the counters; queue state is kept.
func (c *Controller) ResetStats() { c.stats = Stats{} }

func (c *Controller) start(now sim.Time) sim.Time {
	start := now
	if c.nextFree > start {
		start = c.nextFree
		c.stats.QueueDelay += start - now
	}
	c.nextFree = start + c.interval
	return start
}

// Read schedules a line read issued at now and returns its completion
// time.
func (c *Controller) Read(now sim.Time) sim.Time {
	c.stats.Reads++
	return c.start(now) + c.latency
}

// Write schedules a line write issued at now and returns its completion
// time. Writebacks are posted (the protocol does not wait on them), but
// they still consume controller bandwidth.
func (c *Controller) Write(now sim.Time) sim.Time {
	c.stats.Writes++
	return c.start(now) + c.latency
}
