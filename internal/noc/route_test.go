package noc

import (
	"math/rand"
	"testing"

	"allarm/internal/mem"
	"allarm/internal/sim"
)

// refMesh is the reference interconnect: it builds each message's XY
// route as a slice of directed links, dividing node ids into
// coordinates, and charges the links in route order. Mesh.Send must
// match it exactly.
type refMesh struct {
	cfg   Config
	cost  [2]classCost
	free  []sim.Time
	stats Stats
}

func newRefMesh(cfg Config) *refMesh {
	return &refMesh{cfg: cfg, cost: New(cfg).cost, free: make([]sim.Time, cfg.Width*cfg.Height*4)}
}

func (m *refMesh) route(src, dst mem.NodeID) []int {
	w := m.cfg.Width
	x, y := int(src)%w, int(src)/w
	dx, dy := int(dst)%w, int(dst)/w
	var links []int
	for x != dx {
		n := y*w + x
		if x < dx {
			links = append(links, n*4+dirE)
			x++
		} else {
			links = append(links, n*4+dirW)
			x--
		}
	}
	for y != dy {
		n := y*w + x
		if y < dy {
			links = append(links, n*4+dirS)
			y++
		} else {
			links = append(links, n*4+dirN)
			y--
		}
	}
	return links
}

func (m *refMesh) send(now sim.Time, src, dst mem.NodeID, class Class) sim.Time {
	if src == dst {
		m.stats.LocalMsgs++
		return now + m.cfg.LocalLatency
	}
	cost := m.cost[class]
	links := m.route(src, dst)
	t := now
	for _, l := range links {
		start := t
		if m.free[l] > start {
			start = m.free[l]
		}
		m.free[l] = start + cost.ser
		t = start + m.cfg.LinkLatency
	}
	hops := uint64(len(links))
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
	return t + cost.ser
}

// TestSendMatchesReferenceRoute sends every (src, dst) pair of 4×4,
// 2×2 and 3×2 meshes, first alone on an idle mesh and then shuffled
// into one contended stream of both classes, and requires Send to give
// the reference's arrival time for every message, its link occupancy
// and its Stats.
func TestSendMatchesReferenceRoute(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {2, 2}, {3, 2}} {
		cfg := testCfg()
		cfg.Width, cfg.Height = dims[0], dims[1]
		n := cfg.Width * cfg.Height
		var pairs [][2]mem.NodeID
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				pairs = append(pairs, [2]mem.NodeID{mem.NodeID(s), mem.NodeID(d)})
			}
		}
		for _, p := range pairs {
			for _, class := range []Class{Control, Data} {
				m, ref := New(cfg), newRefMesh(cfg)
				got, want := m.Send(7, p[0], p[1], class), ref.send(7, p[0], p[1], class)
				if got != want {
					t.Fatalf("%dx%d %d→%d %v idle: arrival %v, want %v", dims[0], dims[1], p[0], p[1], class, got, want)
				}
				if m.Stats() != ref.stats {
					t.Fatalf("%dx%d %d→%d %v idle: stats %+v, want %+v", dims[0], dims[1], p[0], p[1], class, m.Stats(), ref.stats)
				}
			}
		}

		rng := rand.New(rand.NewSource(int64(n)))
		m, ref := New(cfg), newRefMesh(cfg)
		var now sim.Time
		for round := 0; round < 4; round++ {
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			for _, p := range pairs {
				now += sim.Time(rng.Intn(3000))
				class := Class(rng.Intn(2))
				got, want := m.Send(now, p[0], p[1], class), ref.send(now, p[0], p[1], class)
				if got != want {
					t.Fatalf("%dx%d %d→%d %v at %v: arrival %v, want %v", dims[0], dims[1], p[0], p[1], class, now, got, want)
				}
			}
		}
		if m.Stats() != ref.stats {
			t.Fatalf("%dx%d contended: stats %+v, want %+v", dims[0], dims[1], m.Stats(), ref.stats)
		}
		for l := range m.free {
			if m.free[l] != ref.free[l] {
				t.Fatalf("%dx%d contended: link %d free at %v, want %v", dims[0], dims[1], l, m.free[l], ref.free[l])
			}
		}
	}
}
