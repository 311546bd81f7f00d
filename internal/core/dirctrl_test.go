package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"allarm/internal/checkpoint"
	"allarm/internal/coherence"
	"allarm/internal/dram"
	"allarm/internal/mem"
	"allarm/internal/sim"
)

// recPort records every message a directory sends and delivers none.
type recPort struct{ sent []*Msg }

func (p *recPort) Send(m *Msg) { p.sent = append(p.sent, m) }

// The test directory is node 1 of a four-node machine whose homes own
// 1 MiB each, so its lines start at testBase.
const (
	testHomeBytes = 1 << 20
	testBase      = mem.PAddr(testHomeBytes)
)

func homeLine(i int) mem.PAddr { return testBase + mem.PAddr(i*mem.LineBytes) }

// newTestDir builds a baseline directory with a one-entry probe filter,
// so every allocation after the first evicts.
func newTestDir() (*DirCtrl, *sim.Engine, *recPort) {
	eng := &sim.Engine{}
	p := &recPort{}
	d := NewDirCtrl(Config{
		Node: 1, Nodes: 4, Size: testHomeBytes,
		Alloc: NewBaseline(PolicyContext{}), AllocName: "baseline",
		LookupLatency: sim.Nanosecond, Versions: new(VersionBlocks),
		Msgs: new(coherence.MsgPool), Events: new(DirEvents),
	}, NewProbeFilter(mem.LineBytes, 1), eng, p, dram.New(50*sim.Nanosecond, 0))
	return d, eng, p
}

// lastSent returns the most recent message with op for addr.
func lastSent(t testing.TB, p *recPort, op coherence.Op, addr mem.PAddr) *Msg {
	t.Helper()
	for i := len(p.sent) - 1; i >= 0; i-- {
		if m := p.sent[i]; m.Op == op && m.Addr == addr {
			return m
		}
	}
	t.Fatalf("no %v sent for %#x", op, uint64(addr))
	return nil
}

// Lines of the live scenario.
var (
	lineA = homeLine(1)  // written back with version 0
	lineB = homeLine(2)  // evicted from the probe filter, two requests queued
	lineC = homeLine(3)  // request waiting for its completion ack
	lineD = homeLine(70) // written back with version 5, beyond the first page
)

// liveDir drives a directory into a state with every kind of line state:
// DRAM versions (one of them zero), a busy eviction with a two-message
// waiter queue, and a busy request.
func liveDir(t testing.TB) (*DirCtrl, *sim.Engine, *recPort) {
	d, eng, p := newTestDir()
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.PutM, Addr: lineA, Src: 2, Version: 0})
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.PutM, Addr: lineD, Src: 3, Version: 5})

	d.HandleMsg(eng.Now(), &Msg{Op: coherence.GetS, Addr: lineB, Src: 0})
	eng.Run(0)
	data := lastSent(t, p, coherence.DataMsg, lineB)
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.CmpAck, Addr: lineB, Src: 0, TxnID: data.TxnID})
	eng.Run(0)

	// C's allocation evicts B from the one-entry filter.
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.GetS, Addr: lineC, Src: 2})
	eng.Run(0)
	lastSent(t, p, coherence.PrbInv, lineB)
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.GetM, Addr: lineB, Src: 3})
	d.HandleMsg(eng.Now(), &Msg{Op: coherence.GetS, Addr: lineB, Src: 2})
	eng.Run(0)
	return d, eng, p
}

func encodeDir(t testing.TB, d *DirCtrl) []byte {
	t.Helper()
	e := checkpoint.NewEncoder("")
	if err := d.EncodeState(e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testFrames is the frame count restored test directories reserve: the
// live scenario touches lines in the first two pages, spreadDir in all
// of them.
const testFrames = 16

// spreadDir is liveDir with writebacks reaching every reserved page, at
// one to a few lines each.
func spreadDir(t testing.TB) *DirCtrl {
	d, eng, _ := liveDir(t)
	for p := 2; p < testFrames; p++ {
		for i := 0; i <= p%4; i++ {
			line := homeLine(p*mem.LinesPerPage + (p*7+i*13)%mem.LinesPerPage)
			d.HandleMsg(eng.Now(), &Msg{Op: coherence.PutM, Addr: line, Src: mem.NodeID(p % 4), Version: uint64(p * i)})
		}
	}
	eng.Run(0)
	return d
}

func decodeDir(blob []byte) (*DirCtrl, error) {
	dec, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	d, _, _ := newTestDir()
	d.Reserve(testFrames)
	return d, d.DecodeState(dec)
}

// encodeMsgs serializes messages for comparison.
func encodeMsgs(ms []*Msg) []byte {
	e := checkpoint.NewEncoder("")
	for _, m := range ms {
		coherence.EncodeMsg(e, m)
	}
	var buf bytes.Buffer
	e.Close(&buf)
	return buf.Bytes()
}

func TestDirCtrlSnapshotRoundTrip(t *testing.T) {
	d, eng, p := liveDir(t)
	blob := encodeDir(t, d)
	r, err := decodeDir(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeDir(t, r); !bytes.Equal(again, blob) {
		t.Fatal("re-encoding a restored directory changed the bytes")
	}

	// Entry counts and ascending order, section by section.
	type ver struct {
		addr mem.PAddr
		v    uint64
	}
	var vers []ver
	var busy []mem.PAddr
	r.eachWritten(func(addr mem.PAddr, v uint64) { vers = append(vers, ver{addr, v}) })
	r.eachBusy(func(t *txn) { busy = append(busy, t.addr) })
	if want := []ver{{lineA, 0}, {lineD, 5}}; len(vers) != 2 || vers[0] != want[0] || vers[1] != want[1] {
		t.Fatalf("dramver entries %v, want %v", vers, want)
	}
	if len(busy) != 2 || busy[0] != lineB || busy[1] != lineC || r.nbusy != 2 {
		t.Fatalf("busy lines %#x (nbusy %d), want B then C", busy, r.nbusy)
	}
	ev := r.busy(lineB)
	if ev.kind != txnEviction || len(ev.waiters) != 2 ||
		ev.waiters[0].Op != coherence.GetM || ev.waiters[1].Op != coherence.GetS {
		t.Fatalf("line B: kind %d, %d waiters", ev.kind, len(ev.waiters))
	}
	if r.Quiesced() || r.DRAMVersion(lineD+8) != 5 || r.DRAMVersion(homeLine(500)) != 0 {
		t.Fatal("restored accessors disagree with the live state")
	}

	// Restored behaviour: feed both directories the same acks and
	// compare everything they send and their final state.
	reng := &sim.Engine{}
	if err := reng.RestoreClock(eng.Now(), eng.Seq(), eng.Fired()); err != nil {
		t.Fatal(err)
	}
	rp := &recPort{}
	r.eng, r.port = reng, rp
	prb := lastSent(t, p, coherence.PrbInv, lineB)
	cData := lastSent(t, p, coherence.DataMsg, lineC)
	p.sent = p.sent[:0]
	for _, x := range []struct {
		d   *DirCtrl
		eng *sim.Engine
	}{{d, eng}, {r, reng}} {
		x.d.HandleMsg(x.eng.Now(), &Msg{Op: coherence.Ack, Addr: lineB, Src: 0, Dst: 1, TxnID: prb.TxnID})
		x.d.HandleMsg(x.eng.Now(), &Msg{Op: coherence.CmpAck, Addr: lineC, Src: 2, Dst: 1, TxnID: cData.TxnID})
		x.eng.Run(0)
	}
	if len(p.sent) == 0 || !bytes.Equal(encodeMsgs(p.sent), encodeMsgs(rp.sent)) {
		t.Fatalf("restored directory sent %d messages, original %d (or different ones)", len(rp.sent), len(p.sent))
	}
	if !bytes.Equal(encodeDir(t, d), encodeDir(t, r)) || eng.Now() != reng.Now() {
		t.Fatal("restored directory diverged from the original")
	}
	if b := r.busy(lineB); b == nil || b.kind != txnRequest || b.req.Op != coherence.GetM || len(b.waiters) != 1 {
		t.Fatal("line B's queue was not handed to its next transaction")
	}
	checkLines(t, d)
	checkLines(t, r)
}

// checkLines verifies the line-state bookkeeping: every busy block's
// count matches its transactions and is non-zero, spare blocks are
// empty, nbusy counts the busy lines, every version block belongs to one
// page and holds a written line, versions of unwritten lines are zero,
// and the unused version blocks are empty.
func checkLines(t *testing.T, d *DirCtrl) {
	t.Helper()
	busy := 0
	owner := map[*verBlock]int{}
	for p, ps := range d.pages {
		if b := ps.busy; b != nil {
			n := 0
			for _, x := range b.txns {
				if x != nil {
					n++
				}
			}
			if n != b.n || n == 0 {
				t.Fatalf("page %d: busy count %d, %d transactions", p, b.n, n)
			}
			busy += n
		}
		if b := ps.vers; b != nil {
			if q, ok := owner[b]; ok {
				t.Fatalf("pages %d and %d share a version block", q, p)
			}
			owner[b] = p
			if b.written == 0 {
				t.Fatalf("page %d: version block without a written line", p)
			}
			for i, v := range b.v {
				if b.written>>i&1 == 0 && v != 0 {
					t.Fatalf("page %d: unwritten line %d has version %d", p, i, v)
				}
			}
		}
	}
	for _, b := range d.spare {
		if *b != (busyBlock{}) {
			t.Fatal("spare busy block is not empty")
		}
	}
	for i := range d.cfg.Versions.free {
		if d.cfg.Versions.free[i] != (verBlock{}) {
			t.Fatal("unused version block is not empty")
		}
	}
	if busy != d.nbusy {
		t.Fatalf("nbusy %d for %d busy lines", d.nbusy, busy)
	}
}

// section returns the offset just past a section marker in blob.
func section(t *testing.T, blob []byte, name string) int {
	t.Helper()
	var marker []byte
	marker = binary.LittleEndian.AppendUint64(marker, uint64(len(name)))
	marker = append(marker, name...)
	i := bytes.Index(blob, marker)
	if i < 0 {
		t.Fatalf("no %q section", name)
	}
	return i + len(marker)
}

// reframe recomputes a checkpoint blob's CRC after a payload patch.
func reframe(blob []byte) []byte {
	n := len(blob) - 4
	binary.LittleEndian.PutUint32(blob[n:], crc32.Checksum(blob[:n], crc32.MakeTable(crc32.Castagnoli)))
	return blob
}

func TestDirCtrlDecodeStateRejects(t *testing.T) {
	d, _, _ := liveDir(t)
	blob := encodeDir(t, d)
	// Section layouts: dramver is count then (addr, version) pairs; busy
	// is count then transactions (id u64, kind u8, addr u64, ...);
	// waiters is count then (addr, count, messages).
	dramAddr := section(t, blob, "dramver") + 8
	busyAddr := section(t, blob, "busy") + 8 + 9
	waitAddr := section(t, blob, "waiters") + 8
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(b[off:], v)
		return reframe(b)
	}

	dup := func() []byte {
		d, _, _ := liveDir(t)
		// The busy section lists line B's transaction twice.
		d.setBusy(lineA, d.busy(lineB))
		return encodeDir(t, d)
	}()

	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"dramver unaligned", "not a line", patch(dramAddr, uint64(lineA)+8)},
		{"dramver below home", "not a line", patch(dramAddr, uint64(testBase)-mem.LineBytes)},
		{"dramver above home", "not a line", patch(dramAddr, uint64(testBase)+testHomeBytes)},
		{"dramver beyond touched frames", "not a line", patch(dramAddr, uint64(homeLine(testFrames*mem.LinesPerPage)))},
		{"dramver duplicate", "duplicate DRAM version", patch(dramAddr+16, uint64(lineA))},
		{"busy outside home", "not a line", patch(busyAddr, 1<<62)},
		{"busy duplicate", "duplicate transaction", dup},
		{"waiters outside home", "not a line", patch(waitAddr, 0)},
		{"waiters for idle line", "waiters for idle line", patch(waitAddr, uint64(lineA))},
		{"waiter count", "exceeds limit", patch(waitAddr+8, 1<<40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeDir(tc.blob)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestDirCtrlDecodeEventRejectsForeignLine(t *testing.T) {
	for _, ev := range []func(e *checkpoint.Encoder){
		func(e *checkpoint.Encoder) { e.U8(evDRAM); e.U64(uint64(testBase) + testHomeBytes); e.U64(1) },
		func(e *checkpoint.Encoder) { e.U8(evRetry); e.U64(uint64(lineA) + 1); e.U64(1) },
		func(e *checkpoint.Encoder) {
			e.U8(evAck)
			coherence.EncodeMsg(e, &Msg{Op: coherence.Ack, Addr: 0, Src: 2, Dst: 1})
		},
	} {
		e := checkpoint.NewEncoder("")
		ev(e)
		var buf bytes.Buffer
		e.Close(&buf)
		dec, err := checkpoint.NewDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d, _, _ := newTestDir()
		d.Reserve(testFrames)
		if _, err := d.DecodeEvent(dec); err == nil || !strings.Contains(err.Error(), "not a line") {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestDirCtrlLineTable(t *testing.T) {
	d, _, _ := newTestDir()
	// Reserving the whole home costs 16 bytes a page and nothing else.
	d.Reserve(testHomeBytes / mem.PageBytes * 2)
	if len(d.pages) != testHomeBytes/mem.PageBytes || d.cfg.Versions.free != nil || len(d.spare) != 0 {
		t.Fatalf("Reserve sized %d pages, %d version blocks", len(d.pages), len(d.cfg.Versions.free))
	}

	d, _, _ = newTestDir()
	d.Reserve(2)
	if d.busy(homeLine(5000)) != nil || d.written(homeLine(5000)) || len(d.pages) != 2 {
		t.Fatal("reading beyond the page array grew it")
	}
	d.setVersion(homeLine(1000), 0)
	if n := len(d.pages); n != 16 || !d.written(homeLine(1000)) || d.DRAMVersion(homeLine(1000)) != 0 {
		t.Fatalf("growth to line 1000 sized %d pages", n)
	}
	// Growth never passes the home's range.
	d.setVersion(testBase+testHomeBytes-mem.LineBytes, 3)
	if len(d.pages) != testHomeBytes/mem.PageBytes || d.version(testBase+testHomeBytes-mem.LineBytes) != 3 {
		t.Fatalf("%d pages for a %d-page home", len(d.pages), testHomeBytes/mem.PageBytes)
	}
	for _, addr := range []mem.PAddr{testBase - mem.LineBytes, testBase + testHomeBytes} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line %#x outside the home did not panic", uint64(addr))
				}
			}()
			d.busy(addr)
		}()
	}

	// A page holds a busy block while a line of it is busy; the block
	// is recycled once the page's last transaction finishes.
	x := &txn{}
	d.setBusy(homeLine(1), x)
	d.setBusy(homeLine(2), x)
	first := d.pages[0].busy
	d.setBusy(homeLine(1), nil)
	if d.pages[0].busy != first || d.busy(homeLine(2)) != x || d.nbusy != 1 {
		t.Fatal("a page with a busy line lost its block")
	}
	d.setBusy(homeLine(2), nil)
	if d.pages[0].busy != nil || len(d.spare) != 1 || d.nbusy != 0 {
		t.Fatal("an idle page kept its block")
	}
	d.setBusy(homeLine(3*mem.LinesPerPage), x)
	if d.pages[3].busy != first || len(d.spare) != 0 {
		t.Fatal("a new block did not reuse the spare one")
	}
	checkLines(t, d)
}

// TestVersionStore holds the DRAM version store to a map: random
// writebacks, clustered on a few pages and scattered over the whole home
// (past the reserved pages, up to its last line), with zero versions and
// overwrites, must read back as the map does, in ascending order, and
// survive a checkpoint round trip byte for byte.
func TestVersionStore(t *testing.T) {
	const lines = testHomeBytes / mem.LineBytes
	d, _, _ := newTestDir()
	d.Reserve(2)
	ref := map[mem.PAddr]uint64{}
	r := rand.New(rand.NewPCG(1, 2))
	set := func(addr mem.PAddr, v uint64) {
		d.setVersion(addr, v)
		ref[addr] = v
	}
	check := func() {
		t.Helper()
		for i := 0; i < 2000; i++ {
			a := homeLine(r.IntN(lines))
			v, ok := ref[a]
			if d.written(a) != ok || d.version(a) != v {
				t.Fatalf("line %#x: written %v version %d, want %v %d", uint64(a), d.written(a), d.version(a), ok, v)
			}
		}
		var got []mem.PAddr
		d.eachWritten(func(a mem.PAddr, v uint64) {
			if len(got) > 0 && a <= got[len(got)-1] {
				t.Fatalf("eachWritten visited %#x after %#x", uint64(a), uint64(got[len(got)-1]))
			}
			if w, ok := ref[a]; !ok || w != v {
				t.Fatalf("eachWritten: line %#x version %d, want %d (written %v)", uint64(a), v, w, ok)
			}
			got = append(got, a)
		})
		if len(got) != len(ref) {
			t.Fatalf("eachWritten visited %d lines, %d written", len(got), len(ref))
		}
		checkLines(t, d)
	}

	for round := 0; round < 20; round++ {
		for i := 0; i < 300; i++ {
			var line int
			if r.IntN(2) == 0 {
				line = r.IntN(4 * mem.LinesPerPage) // the first pages, densely
			} else {
				line = r.IntN(lines)
			}
			v := r.Uint64() % 4 // small versions: zeros and repeats
			if r.IntN(4) == 0 {
				v = r.Uint64()
			}
			set(homeLine(line), v)
		}
		check()
	}
	// The home's last page, its last line overwritten with 0.
	set(homeLine(lines-mem.LinesPerPage), 7)
	set(homeLine(lines-1), 9)
	set(homeLine(lines-1), 0)
	check()
	if len(d.pages) != testHomeBytes/mem.PageBytes {
		t.Fatalf("%d pages for a %d-page home", len(d.pages), testHomeBytes/mem.PageBytes)
	}

	blob := encodeDir(t, d)
	dec, err := checkpoint.NewDecoder(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	rd, _, _ := newTestDir()
	rd.Reserve(testHomeBytes / mem.PageBytes)
	if err := rd.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDir(t, rd), blob) {
		t.Fatal("decoded version store does not re-encode identically")
	}
	d = rd
	check()
}

// TestVersionBlockAllocs pins the version store's allocations: first
// writebacks to P distinct pages, split between two directories sharing
// their blocks as a machine's do, allocate once per verChunk pages, and
// further writebacks to a written page allocate nothing. Mallocs are
// counted process-wide, where a stray runtime allocation only adds to
// the count, so the fewest over a few fresh directory pairs is taken.
func TestVersionBlockAllocs(t *testing.T) {
	const pages, pairs = 100, 5
	var d, peer *DirCtrl
	fewest := ^uint64(0)
	for range pairs {
		d, _, _ = newTestDir()
		d.Reserve(testHomeBytes / mem.PageBytes)
		peer = NewDirCtrl(d.cfg, NewProbeFilter(mem.LineBytes, 1), &sim.Engine{}, &recPort{}, dram.New(50*sim.Nanosecond, 0))
		peer.Reserve(testHomeBytes / mem.PageBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := 0; p < pages; p++ {
			dir := d
			if p%3 == 0 {
				dir = peer
			}
			dir.setVersion(homeLine(p*mem.LinesPerPage+p%mem.LinesPerPage), uint64(p))
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if limit := uint64((pages + verChunk - 1) / verChunk); fewest > limit {
		t.Fatalf("versions on %d pages allocated at fewest %d times over %d directory pairs, want at most %d", pages, fewest, pairs, limit)
	}
	v := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		v++
		d.setVersion(homeLine(5*mem.LinesPerPage+int(v)%mem.LinesPerPage), v)
	}); n != 0 {
		t.Fatalf("a writeback to a written page allocates %v times", n)
	}
	checkLines(t, d)
	checkLines(t, peer)
}

// TestPackedEntry pins a probe-filter way's host cost — a tag word, an
// LRU tick and an owner, at most 20 bytes, all ways cut from one
// allocation — and the directory's per-page record: two block pointers,
// 16 bytes.
func TestPackedEntry(t *testing.T) {
	pf := NewProbeFilter(32<<10, 4)
	if n := unsafe.Sizeof(pf.tags[0]) + unsafe.Sizeof(pf.lrus[0]) + unsafe.Sizeof(pf.owners[0]); n > 20 {
		t.Fatalf("a probe-filter way costs %d bytes, want at most 20", n)
	}
	// The filter header and one backing array.
	if n := testing.AllocsPerRun(10, func() { NewProbeFilter(32<<10, 4) }); n != 2 {
		t.Fatalf("NewProbeFilter allocates %v times, want 2", n)
	}
	if n := unsafe.Sizeof(pageState{}); n != 16 {
		t.Fatalf("pageState is %d bytes, want 16", n)
	}
}

// FuzzDirCtrlDecodeState feeds mutated directory state, framed behind a
// valid CRC, to DecodeState and then DecodeEvent: both must fail with an
// error, never panic, and a state they accept must re-encode stably.
func FuzzDirCtrlDecodeState(f *testing.F) {
	live, _, _ := liveDir(f)
	empty, _, _ := newTestDir()
	for _, d := range []*DirCtrl{live, spreadDir(f), empty} {
		e := checkpoint.NewEncoder("")
		if err := d.EncodeState(e); err != nil {
			f.Fatal(err)
		}
		e.U8(evDRAM)
		e.U64(uint64(lineC))
		e.U64(7)
		e.U8(evAck)
		coherence.EncodeMsg(e, &Msg{Op: coherence.Ack, Addr: lineB, Src: 0, Dst: 1, TxnID: 4})
		f.Add(payload(f, e))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := checkpoint.NewDecoder(bytes.NewReader(frame(data)))
		if err != nil {
			t.Fatal(err)
		}
		d, _, _ := newTestDir()
		d.Reserve(testFrames)
		if err := d.DecodeState(dec); err != nil {
			return
		}
		for dec.Remaining() > 0 {
			if _, err := d.DecodeEvent(dec); err != nil {
				break
			}
		}
		blob := encodeDir(t, d)
		r, err := decodeDir(blob)
		if err != nil {
			t.Fatalf("re-decoding an accepted state: %v", err)
		}
		if !bytes.Equal(encodeDir(t, r), blob) {
			t.Fatal("accepted state does not re-encode stably")
		}
	})
}

// payload returns the encoded payload of e, without framing.
func payload(tb testing.TB, e *checkpoint.Encoder) []byte {
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	head := 4 + 2 + 8 + 8 // magic, version, empty meta, payload length
	return b[head : len(b)-4]
}

// frame wraps a payload as a checkpoint with an empty meta and a valid
// CRC, so the decoders under test see the bytes as intact.
func frame(p []byte) []byte {
	b := []byte("ALCK")
	b = binary.LittleEndian.AppendUint16(b, checkpoint.Format)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
	b = append(b, p...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	return b
}
