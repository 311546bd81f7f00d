// Package noc models the on-chip interconnect of the simulated machine: a
// 2D mesh with dimension-ordered (XY) routing, per-link serialization and
// contention, and flit-level traffic accounting for the energy model.
//
// The model is message-level: a message's latency is
//
//	hops × linkLatency + serialization + contention waits
//
// which matches wormhole switching to first order (the serialization
// delay is paid once because flits pipeline across hops). Individual
// flits are accounted (for traffic and dynamic energy) but not routed.
package noc

import (
	"fmt"

	"allarm/internal/mem"
	"allarm/internal/sim"
)

// Class distinguishes message sizes for accounting (Table I: 8-byte
// control messages, 72-byte data messages).
type Class uint8

const (
	// Control is a coherence request, probe, or acknowledgement.
	Control Class = iota
	// Data is a message carrying a full cache line.
	Data
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Control {
		return "ctrl"
	}
	return "data"
}

// Config describes the mesh geometry and link parameters.
type Config struct {
	// Width and Height give the mesh dimensions (paper: 4×4).
	Width, Height int
	// LinkLatency is the per-hop traversal latency (paper: 10 ns).
	LinkLatency sim.Time
	// LinkBandwidth is per-link bandwidth in bytes per nanosecond
	// (paper: 8 GB/s = 8 bytes/ns).
	LinkBandwidth float64
	// FlitBytes is the flit size for traffic accounting (paper: 4 bytes).
	FlitBytes int
	// ControlBytes and DataBytes are message sizes (paper: 8 and 72).
	ControlBytes, DataBytes int
	// LocalLatency is the node-internal delivery latency when source and
	// destination are the same node (no NoC traversal, no traffic).
	LocalLatency sim.Time
}

// Validate reports a descriptive error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: mesh dimensions %dx%d invalid", c.Width, c.Height)
	case c.LinkLatency < 0 || c.LocalLatency < 0:
		return fmt.Errorf("noc: negative latency")
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("noc: link bandwidth must be positive")
	case c.FlitBytes <= 0:
		return fmt.Errorf("noc: flit size must be positive")
	case c.ControlBytes <= 0 || c.DataBytes < c.ControlBytes:
		return fmt.Errorf("noc: message sizes must satisfy 0 < control <= data")
	}
	return nil
}

// Stats accumulates interconnect traffic.
type Stats struct {
	Messages    uint64
	CtrlMsgs    uint64
	DataMsgs    uint64
	Bytes       uint64
	Flits       uint64
	FlitHops    uint64 // Σ flits × hops: the dynamic-energy driver
	RouterXings uint64 // Σ flits × (hops+1): router traversals
	LocalMsgs   uint64 // node-internal deliveries (no NoC traversal)
}

// Mesh is the interconnect instance.
type Mesh struct {
	cfg   Config
	cost  [2]classCost // per Class, fixed by the configuration
	xy    []coord      // per node: its mesh coordinates
	free  []sim.Time   // per directed link: next time the link is free
	stats Stats
}

// coord is a node's (x, y) position in the mesh.
type coord struct{ x, y int }

// classCost is what one message of a class costs the wire: its size,
// its flit count and its per-link serialization time.
type classCost struct {
	bytes, flits int
	ser          sim.Time
}

// New constructs a mesh from cfg. It panics on invalid configuration
// (configuration is validated at the facade; this is an internal type).
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Four directed links per node (E, W, N, S); edge links exist in the
	// slice but are never used by XY routing.
	m := &Mesh{
		cfg:  cfg,
		xy:   make([]coord, cfg.Width*cfg.Height),
		free: make([]sim.Time, cfg.Width*cfg.Height*4),
	}
	for n := range m.xy {
		m.xy[n] = coord{n % cfg.Width, n / cfg.Width}
	}
	for c, bytes := range [2]int{Control: cfg.ControlBytes, Data: cfg.DataBytes} {
		m.cost[c] = classCost{
			bytes: bytes,
			flits: (bytes + cfg.FlitBytes - 1) / cfg.FlitBytes,
			ser:   sim.Time(float64(bytes) / cfg.LinkBandwidth * float64(sim.Nanosecond)),
		}
	}
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a copy of accumulated traffic statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// ResetStats zeroes traffic counters; link occupancy state is kept.
func (m *Mesh) ResetStats() { m.stats = Stats{} }

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Directed-link direction indices: node n's link in direction dir is
// free[4n+dir].
const (
	dirE = iota
	dirW
	dirN
	dirS
)

// leg returns the link-index step, the direction and the hop count of
// one XY-route leg from coordinate a to b, where one unit of the
// coordinate is stride nodes and inc and dec are the directions that
// increase and decrease it.
func leg(a, b, stride, inc, dec int) (step, dir, hops int) {
	if a < b {
		return 4 * stride, inc, b - a
	}
	return -4 * stride, dec, a - b
}

// Send accounts for one message injected at time now and returns its
// arrival time at dst. Node-internal messages (src == dst) are delivered
// after LocalLatency and generate no NoC traffic.
//
// Contention: each directed link on the XY route is occupied for the
// message's serialization time; a message waits for the link to free
// before its head flit advances. Messages on the same route therefore
// arrive in FIFO order.
func (m *Mesh) Send(now sim.Time, src, dst mem.NodeID, class Class) sim.Time {
	if src == dst {
		m.stats.LocalMsgs++
		return now + m.cfg.LocalLatency
	}
	cost := &m.cost[class]
	ser := cost.ser

	// Walk the XY route link by link: the X leg first, then the Y leg,
	// each link moving the head flit on after it frees.
	sc, dc := m.xy[src], m.xy[dst]
	l := int(src) * 4
	t := now
	xStep, xDir, xHops := leg(sc.x, dc.x, 1, dirE, dirW)
	yStep, yDir, yHops := leg(sc.y, dc.y, m.cfg.Width, dirS, dirN)
	for k := 0; k < xHops; k++ {
		t = m.cross(l+xDir, t, ser)
		l += xStep
	}
	for k := 0; k < yHops; k++ {
		t = m.cross(l+yDir, t, ser)
		l += yStep
	}
	arrival := t + ser // tail flit trails the head by the serialization time

	hops := uint64(xHops + yHops)
	m.stats.Messages++
	if class == Control {
		m.stats.CtrlMsgs++
	} else {
		m.stats.DataMsgs++
	}
	flits := uint64(cost.flits)
	m.stats.Bytes += uint64(cost.bytes)
	m.stats.Flits += flits
	m.stats.FlitHops += flits * hops
	m.stats.RouterXings += flits * (hops + 1)
	return arrival
}

// cross moves a message's head flit, ready at t, over link: it waits for
// the link to free, occupies it for ser and reaches the far router one
// link latency later, when cross returns.
func (m *Mesh) cross(link int, t, ser sim.Time) sim.Time {
	start := max(t, m.free[link])
	m.free[link] = start + ser
	return start + m.cfg.LinkLatency
}
