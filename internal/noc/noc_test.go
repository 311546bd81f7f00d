package noc

import (
	"testing"
	"testing/quick"

	"allarm/internal/mem"
	"allarm/internal/sim"
)

func testCfg() Config {
	return Config{
		Width: 4, Height: 4,
		LinkLatency:   10 * sim.Nanosecond,
		LinkBandwidth: 8,
		FlitBytes:     4,
		ControlBytes:  8,
		DataBytes:     72,
		LocalLatency:  1 * sim.Nanosecond,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	bad = testCfg()
	bad.LinkBandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = testCfg()
	bad.DataBytes = 4
	bad.ControlBytes = 8
	if bad.Validate() == nil {
		t.Fatal("data < control accepted")
	}
}

// hops sends one control message and returns the hop count Send
// charged for it: its flit-hops over its flits (0 for a local delivery).
func hops(m *Mesh, src, dst mem.NodeID) int {
	before := m.Stats()
	m.Send(0, src, dst, Control)
	after := m.Stats()
	if after.Flits == before.Flits {
		return 0
	}
	return int((after.FlitHops - before.FlitHops) / (after.Flits - before.Flits))
}

func TestHopsIsManhattan(t *testing.T) {
	m := New(testCfg())
	cases := []struct {
		src, dst mem.NodeID
		want     int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 15, 6}, {5, 10, 2},
	}
	for _, c := range cases {
		if got := hops(m, c.src, c.dst); got != c.want {
			t.Fatalf("hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := New(testCfg())
	f := func(a, b uint8) bool {
		s, d := mem.NodeID(a%16), mem.NodeID(b%16)
		return hops(m, s, d) == hops(m, d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := New(testCfg())
	at := m.Send(100, 3, 3, Control)
	if at != 100+1*sim.Nanosecond {
		t.Fatalf("local delivery at %v", at)
	}
	if s := m.Stats(); s.Bytes != 0 || s.LocalMsgs != 1 || s.Messages != 0 {
		t.Fatalf("local message counted as traffic: %+v", s)
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := New(testCfg())
	// 0→1: one hop. Control 8B at 8 B/ns = 1ns serialization.
	at := m.Send(0, 0, 1, Control)
	want := 10*sim.Nanosecond + 1*sim.Nanosecond
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	// 0→15: six hops, data 72B → 9ns serialization, paid once. The first
	// message above occupied node 0's east link, so use a fresh mesh.
	m = New(testCfg())
	at = m.Send(0, 0, 15, Data)
	want = 6*10*sim.Nanosecond + 9*sim.Nanosecond
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
}

func TestContentionSerializesSameRoute(t *testing.T) {
	m := New(testCfg())
	a := m.Send(0, 0, 1, Data)
	b := m.Send(0, 0, 1, Data)
	if b <= a {
		t.Fatalf("contending messages not serialized: %v then %v", a, b)
	}
	// FIFO per route: a third message arrives after the second.
	c := m.Send(0, 0, 1, Control)
	if c <= b {
		t.Fatalf("FIFO violated: %v after %v", c, b)
	}
}

func TestDisjointRoutesDoNotContend(t *testing.T) {
	m := New(testCfg())
	a := m.Send(0, 0, 1, Data)
	b := m.Send(0, 14, 15, Data) // far corner, disjoint links
	if a != b {
		t.Fatalf("disjoint routes contended: %v vs %v", a, b)
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := New(testCfg())
	m.Send(0, 0, 1, Control) // 8B, 2 flits, 1 hop
	m.Send(0, 0, 2, Data)    // 72B, 18 flits, 2 hops
	s := m.Stats()
	if s.Messages != 2 || s.CtrlMsgs != 1 || s.DataMsgs != 1 {
		t.Fatalf("message counts %+v", s)
	}
	if s.Bytes != 80 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	if s.Flits != 20 {
		t.Fatalf("flits = %d", s.Flits)
	}
	if s.FlitHops != 2*1+18*2 {
		t.Fatalf("flit-hops = %d", s.FlitHops)
	}
	if s.RouterXings != 2*2+18*3 {
		t.Fatalf("router crossings = %d", s.RouterXings)
	}
}

func TestResetStats(t *testing.T) {
	m := New(testCfg())
	m.Send(0, 0, 5, Data)
	m.ResetStats()
	if s := m.Stats(); s.Messages != 0 || s.Bytes != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

func TestArrivalNeverBeforeMinimumLatency(t *testing.T) {
	m := New(testCfg())
	f := func(a, b uint8, now uint16) bool {
		src, dst := mem.NodeID(a%16), mem.NodeID(b%16)
		if src == dst {
			return true
		}
		t0 := sim.Time(now) * sim.Nanosecond
		before := m.Stats()
		at := m.Send(t0, src, dst, Control)
		after := m.Stats()
		hops := (after.FlitHops - before.FlitHops) / (after.Flits - before.Flits)
		min := t0 + sim.Time(hops)*m.cfg.LinkLatency
		return at > min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlitsFor(t *testing.T) {
	m := New(testCfg())
	if m.cost[Control].flits != 2 || m.cost[Data].flits != 18 {
		t.Fatalf("flits: ctrl=%d data=%d", m.cost[Control].flits, m.cost[Data].flits)
	}
	if m.cost[Control].bytes != 8 || m.cost[Data].bytes != 72 {
		t.Fatal("bytes wrong")
	}
}
