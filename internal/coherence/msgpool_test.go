package coherence

import (
	"testing"

	"allarm/internal/cache"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

func TestMsgPoolRecyclesAndZeroes(t *testing.T) {
	var p MsgPool
	m := p.Get()
	m.Op, m.Addr, m.Hit, m.Version = DataMsg, mem.PAddr(0x1000), true, 42
	m.Release()
	m2 := p.Get()
	if m2 != m {
		t.Fatalf("pool did not recycle the released message")
	}
	if m2.Op != GetS || m2.Addr != 0 || m2.Hit || m2.Version != 0 {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
	s := p.Stats()
	if s.News != 1 || s.Gets != 2 || s.Puts != 1 {
		t.Fatalf("stats = %+v, want News=1 Gets=2 Puts=1", s)
	}
}

func TestMsgPoolDoubleReleasePanics(t *testing.T) {
	var p MsgPool
	m := p.Get()
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double release")
		}
	}()
	m.Release()
}

func TestMsgReleaseWithoutPoolIsNoop(t *testing.T) {
	m := &Msg{Op: Ack}
	m.Release() // must not panic: test/tool messages have no pool
	m.Release()
}

// TestCacheCtrlRecyclesMessages drives a miss + fill + probe through a
// controller and checks the messages it allocated come back for reuse
// once the (loopback) receiver is done with them.
func TestCacheCtrlRecyclesMessages(t *testing.T) {
	eng := &sim.Engine{}
	hier := cache.NewHierarchy(1<<10, 2, 4<<10, 2)
	cc := NewCacheCtrl(0, hier, eng, &loopbackPort{}, func(mem.PAddr) mem.NodeID { return 0 }, sim.Nanosecond)

	addr := mem.PAddr(0x40)
	done := false
	cc.CoreAccess(eng.Now(), addr, false, sim.HandlerFunc(func(sim.Time) { done = true }))
	// The GetS went to the loopback port; answer it with a fill.
	fill := cc.pool.Get()
	fill.Op, fill.Addr, fill.Grant = DataMsg, addr, cache.Exclusive
	cc.HandleMsg(eng.Now(), fill)
	eng.Run(0)
	if !done {
		t.Fatal("access did not complete")
	}

	s := cc.PoolStats()
	if s.Puts == 0 {
		t.Fatalf("no messages recycled: %+v", s)
	}
	// A second identical flow must reuse freed messages, not allocate.
	news := cc.PoolStats().News
	cc.HandleMsg(eng.Now(), &Msg{Op: PrbInv, Addr: addr, Src: 1, ForwardTo: NoNode})
	eng.Run(0)
	if got := cc.PoolStats().News; got != news {
		t.Fatalf("probe flow allocated %d fresh messages, want 0", got-news)
	}
}

// loopbackPort releases everything sent through it, standing in for a
// remote controller that consumes the message.
type loopbackPort struct{}

func (p *loopbackPort) Send(m *Msg) { m.Release() }
