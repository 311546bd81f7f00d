package coherence

import (
	"testing"

	"allarm/internal/cache"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// fakePort records sent messages for assertions.
type fakePort struct {
	sent []*Msg
}

func (p *fakePort) Send(m *Msg) { p.sent = append(p.sent, m) }

func (p *fakePort) last() *Msg {
	if len(p.sent) == 0 {
		return nil
	}
	return p.sent[len(p.sent)-1]
}

func line(i int) mem.PAddr { return mem.PAddr(i * mem.LineBytes) }

// homeAt maps every line to node 1 (a remote home for our node-0 cache).
func homeAt(n mem.NodeID) func(mem.PAddr) mem.NodeID {
	return func(mem.PAddr) mem.NodeID { return n }
}

func newCtrl(t *testing.T) (*CacheCtrl, *fakePort, *sim.Engine) {
	t.Helper()
	eng := &sim.Engine{}
	port := &fakePort{}
	hier := cache.NewHierarchy(512, 2, 2048, 4)
	cc := NewCacheCtrl(0, hier, eng, port, new(MsgPool), homeAt(1), 1*sim.Nanosecond)
	return cc, port, eng
}

func TestReadMissSendsGetS(t *testing.T) {
	cc, port, eng := newCtrl(t)
	done := false
	cc.CoreAccess(0, line(1), false, sim.HandlerFunc(func(sim.Time) { done = true }))
	eng.Run(0)
	if done {
		t.Fatal("miss completed without a fill")
	}
	m := port.last()
	if m == nil || m.Op != GetS || !m.ToDir || m.Dst != 1 || m.Addr != line(1) {
		t.Fatalf("sent %v", m)
	}
	if !cc.hasPending {
		t.Fatal("no MSHR allocated")
	}
}

func TestWriteMissSendsGetM(t *testing.T) {
	cc, port, eng := newCtrl(t)
	cc.CoreAccess(0, line(1), true, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	if m := port.last(); m.Op != GetM {
		t.Fatalf("sent %v", m)
	}
}

func TestFillCompletesAndAcks(t *testing.T) {
	cc, port, eng := newCtrl(t)
	var doneAt sim.Time
	cc.CoreAccess(0, line(1), false, sim.HandlerFunc(func(now sim.Time) { doneAt = now }))
	eng.Run(0)
	port.sent = nil
	cc.HandleMsg(eng.Now(), &Msg{
		Op: DataMsg, Addr: line(1), Src: 1, Dst: 0,
		Grant: cache.Exclusive, Version: 9, TxnID: 77,
	})
	eng.Run(0)
	if doneAt == 0 {
		t.Fatal("fill did not complete the access")
	}
	// The completion ack must go to the home with the transaction id.
	var cmp *Msg
	for _, m := range port.sent {
		if m.Op == CmpAck {
			cmp = m
		}
	}
	if cmp == nil || cmp.Dst != 1 || cmp.TxnID != 77 || !cmp.ToDir {
		t.Fatalf("CmpAck wrong: %v", cmp)
	}
	if st := cc.Hierarchy().Find(line(1)).State(); st != cache.Exclusive {
		t.Fatalf("state %v", st)
	}
	if cc.Hierarchy().Find(line(1)).Version() != 9 {
		t.Fatal("version lost")
	}
}

func TestWriteFillUpgradesToModifiedAndBumpsVersion(t *testing.T) {
	cc, _, eng := newCtrl(t)
	cc.CoreAccess(0, line(1), true, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	cc.HandleMsg(eng.Now(), &Msg{
		Op: DataMsg, Addr: line(1), Src: 1, Dst: 0,
		Grant: cache.Modified, Version: 4,
	})
	eng.Run(0)
	l := cc.Hierarchy().Find(line(1)).Line()
	if l.State != cache.Modified || l.Version != 5 {
		t.Fatalf("line %+v, want M v5", l)
	}
}

func TestStoreHitBumpsVersion(t *testing.T) {
	cc, _, eng := newCtrl(t)
	cc.Hierarchy().Fill(line(2), cache.Exclusive, false, 3)
	var stored uint64
	cc.OnStore = func(addr mem.PAddr, v uint64) { stored = v }
	cc.CoreAccess(0, line(2), true, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	if stored != 4 {
		t.Fatalf("store version %d, want 4", stored)
	}
}

func TestProbeInvOnOwnerForwardsData(t *testing.T) {
	cc, port, eng := newCtrl(t)
	cc.Hierarchy().Fill(line(3), cache.Modified, false, 8)
	cc.HandleMsg(0, &Msg{
		Op: PrbInv, Addr: line(3), Src: 1, Dst: 0,
		Mode: GetM, ForwardTo: 5, Grant: cache.Modified, TxnID: 11,
	})
	eng.Run(0)
	var data, ack *Msg
	for _, m := range port.sent {
		switch m.Op {
		case DataMsg:
			data = m
		case Ack:
			ack = m
		}
	}
	if data == nil || data.Dst != 5 || data.Grant != cache.Modified || data.Version != 8 {
		t.Fatalf("forwarded data %v", data)
	}
	if ack == nil || !ack.Hit || ack.PrevState != cache.Modified || ack.TxnID != 11 {
		t.Fatalf("ack %v", ack)
	}
	if cc.Hierarchy().Find(line(3)).State() != cache.Invalid {
		t.Fatal("line survived invalidation")
	}
}

func TestBackInvalidationReturnsDirtyData(t *testing.T) {
	cc, port, eng := newCtrl(t)
	cc.Hierarchy().Fill(line(3), cache.Modified, false, 6)
	cc.HandleMsg(0, &Msg{
		Op: PrbInv, Addr: line(3), Src: 1, Dst: 0,
		Mode: GetM, ForwardTo: NoNode, TxnID: 2,
	})
	eng.Run(0)
	m := port.last()
	if m.Op != AckData || !m.Dirty || m.Version != 6 || !m.ToDir {
		t.Fatalf("back-invalidation response %v", m)
	}
}

func TestProbeMissAcksMiss(t *testing.T) {
	cc, port, eng := newCtrl(t)
	cc.HandleMsg(0, &Msg{Op: PrbInv, Addr: line(9), Src: 1, Dst: 0, ForwardTo: NoNode})
	eng.Run(0)
	if m := port.last(); m.Op != Ack || m.Hit {
		t.Fatalf("miss probe response %v", m)
	}
}

func TestProbeDownDowngradesAndForwards(t *testing.T) {
	cc, port, eng := newCtrl(t)
	cc.Hierarchy().Fill(line(4), cache.Modified, false, 2)
	cc.HandleMsg(0, &Msg{
		Op: PrbDown, Addr: line(4), Src: 1, Dst: 0,
		Mode: GetS, ForwardTo: 7, Grant: cache.Shared,
	})
	eng.Run(0)
	if st := cc.Hierarchy().Find(line(4)).State(); st != cache.Owned {
		t.Fatalf("state after PrbDown = %v", st)
	}
	var data *Msg
	for _, m := range port.sent {
		if m.Op == DataMsg {
			data = m
		}
	}
	if data == nil || data.Grant != cache.Shared || data.Dst != 7 {
		t.Fatalf("forwarded %v", data)
	}
}

func TestPrbLocalModeSemantics(t *testing.T) {
	// Mode GetS downgrades; mode GetM invalidates.
	cc, _, eng := newCtrl(t)
	cc.Hierarchy().Fill(line(5), cache.Exclusive, true, 0)
	cc.HandleMsg(0, &Msg{Op: PrbLocal, Addr: line(5), Src: 0, Dst: 0, Mode: GetS, ForwardTo: 3, Grant: cache.Shared})
	eng.Run(0)
	if st := cc.Hierarchy().Find(line(5)).State(); st != cache.Shared {
		t.Fatalf("PrbLocal/GetS left state %v", st)
	}
	cc.HandleMsg(eng.Now(), &Msg{Op: PrbLocal, Addr: line(5), Src: 0, Dst: 0, Mode: GetM, ForwardTo: 3, Grant: cache.Modified})
	eng.Run(0)
	if st := cc.Hierarchy().Find(line(5)).State(); st != cache.Invalid {
		t.Fatalf("PrbLocal/GetM left state %v", st)
	}
}

func TestEvictionSendsPuts(t *testing.T) {
	// A tiny hierarchy forces victims quickly.
	eng := &sim.Engine{}
	port := &fakePort{}
	hier := cache.NewHierarchy(128, 2, 128, 2) // 2+2 lines
	cc := NewCacheCtrl(0, hier, eng, port, new(MsgPool), homeAt(1), 1*sim.Nanosecond)
	hier.Fill(line(0), cache.Modified, false, 9)
	hier.Fill(line(1), cache.Exclusive, false, 0)
	hier.Fill(line(2), cache.Exclusive, false, 0)
	hier.Fill(line(3), cache.Exclusive, false, 0)
	// Two more fills via the controller's fill path overflow both levels.
	for i := 4; i <= 5; i++ {
		cc.CoreAccess(eng.Now(), line(i), false, sim.HandlerFunc(func(sim.Time) {}))
		eng.Run(0)
		cc.HandleMsg(eng.Now(), &Msg{
			Op: DataMsg, Addr: line(i), Src: 1, Dst: 0, Grant: cache.Exclusive,
		})
		eng.Run(0)
	}
	var putM, putE int
	for _, m := range port.sent {
		switch m.Op {
		case PutM:
			putM++
			if m.Version != 9 || !m.Dirty {
				t.Fatalf("PutM payload %v", m)
			}
		case PutE:
			putE++
		}
	}
	if putM+putE == 0 {
		t.Fatal("no eviction notifications sent")
	}
	s := cc.Stats()
	if s.PutMs != uint64(putM) || s.PutEs != uint64(putE) {
		t.Fatalf("stats %+v vs %d/%d", s, putM, putE)
	}
}

func TestSecondOutstandingAccessPanics(t *testing.T) {
	cc, _, eng := newCtrl(t)
	cc.CoreAccess(0, line(1), false, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cc.CoreAccess(eng.Now(), line(2), false, sim.HandlerFunc(func(sim.Time) {}))
}

func TestOpClassification(t *testing.T) {
	dataOps := map[Op]bool{PutM: true, DataMsg: true, AckData: true}
	for op := GetS; op <= CmpAck; op++ {
		want := "ctrl"
		if dataOps[op] {
			want = "data"
		}
		if got := op.Class().String(); got != want {
			t.Fatalf("%v class = %v", op, got)
		}
	}
}

// TestNoFillCompletesWithoutInstalling: an uncached grant finishes the
// pending access and closes the transaction, but leaves no copy behind.
func TestNoFillCompletesWithoutInstalling(t *testing.T) {
	cc, port, eng := newCtrl(t)
	var doneAt sim.Time
	var loaded []uint64
	cc.OnLoad = func(addr mem.PAddr, version uint64) { loaded = append(loaded, version) }
	cc.CoreAccess(0, line(1), false, sim.HandlerFunc(func(now sim.Time) { doneAt = now }))
	eng.Run(0)
	port.sent = nil
	cc.HandleMsg(eng.Now(), &Msg{
		Op: DataMsg, Addr: line(1), Src: 1, Dst: 0,
		Grant: cache.Shared, Version: 4, TxnID: 9, NoFill: true,
	})
	eng.Run(0)
	if doneAt == 0 {
		t.Fatal("no-fill grant did not complete the access")
	}
	if cc.hasPending {
		t.Fatal("MSHR still held")
	}
	if l := cc.Hierarchy().Find(line(1)); l.Ok() {
		t.Fatalf("no-fill grant installed the line: %+v", l.Line())
	}
	if len(loaded) != 1 || loaded[0] != 4 {
		t.Fatalf("load observed %v, want the delivered version", loaded)
	}
	cmp := port.last()
	if cmp == nil || cmp.Op != CmpAck || cmp.TxnID != 9 || !cmp.ToDir {
		t.Fatalf("no CmpAck closed the transaction: %v", cmp)
	}
	if s := cc.Stats(); s.UncachedFills != 1 || s.Fills != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestNoFillStorePanics: writes must never be served uncached.
func TestNoFillStorePanics(t *testing.T) {
	cc, _, eng := newCtrl(t)
	cc.CoreAccess(0, line(1), true, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no-fill store grant accepted")
		}
	}()
	cc.HandleMsg(eng.Now(), &Msg{
		Op: DataMsg, Addr: line(1), Src: 1, Dst: 0,
		Grant: cache.Modified, NoFill: true,
	})
}

// TestProbeForwardPropagatesNoFill: a PrbLocal carrying NoFill forwards
// owner data with the flag intact, so the remote requester consumes it
// uncached.
func TestProbeForwardPropagatesNoFill(t *testing.T) {
	cc, port, eng := newCtrl(t)
	// Fill the line as Modified owner first.
	cc.CoreAccess(0, line(1), true, sim.HandlerFunc(func(sim.Time) {}))
	eng.Run(0)
	cc.HandleMsg(eng.Now(), &Msg{Op: DataMsg, Addr: line(1), Src: 1, Dst: 0, Grant: cache.Modified})
	eng.Run(0)
	port.sent = nil

	cc.HandleMsg(eng.Now(), &Msg{
		Op: PrbLocal, Addr: line(1), Src: 1, Dst: 0,
		Mode: GetS, ForwardTo: 5, Grant: cache.Shared, NoFill: true, TxnID: 3,
	})
	eng.Run(0)
	var data *Msg
	for _, m := range port.sent {
		if m.Op == DataMsg {
			data = m
		}
	}
	if data == nil || data.Dst != 5 || !data.NoFill {
		t.Fatalf("forwarded data lost NoFill: %v", data)
	}
}
