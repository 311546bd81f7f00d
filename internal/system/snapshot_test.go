package system

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"allarm/internal/mem"
	"allarm/internal/sim"
)

// snapBuild constructs a fresh machine + thread specs for the snapshot
// tests, exactly reproducibly (the resume contract: the restorer
// rebuilds machine and streams from the job spec, then Restore
// fast-forwards). Invariant checking is off — checker shadow state is
// not serializable.
func snapBuild(t *testing.T, policy testPolicy, warmup bool) (*Machine, []ThreadSpec) {
	t.Helper()
	cfg := testConfig(policy)
	cfg.CheckInvariants = false
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wl := synthetic(t, stressParams(4, 2000))
	space := m.NewAddressSpace()
	preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th % cfg.Nodes) })
	var specs []ThreadSpec
	for th := 0; th < 4; th++ {
		s := ThreadSpec{
			Node: mem.NodeID(th), Stream: wl.Stream(th, 42), Space: space,
			Name: fmt.Sprintf("snap/%d", th),
		}
		if warmup {
			s.Warmup = wl.Stream(th, 7)
		}
		specs = append(specs, s)
	}
	return m, specs
}

// stepUntilFired drives a started run in small windows until the engine
// has fired at least target events (or the run completes, which the
// caller treats as "snapshot point never reached").
func stepUntilFired(t *testing.T, m *Machine, target uint64) bool {
	t.Helper()
	for m.Engine().Fired() < target {
		done, err := m.StepCtx(context.Background(), 2048)
		if err != nil {
			t.Fatalf("StepCtx: %v", err)
		}
		if done {
			return true
		}
	}
	return false
}

// finishRun drives a run to completion and collects.
func finishRun(t *testing.T, m *Machine) *RunResult {
	t.Helper()
	for {
		done, err := m.StepCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("StepCtx: %v", err)
		}
		if done {
			res, err := m.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			return res
		}
	}
}

// assertIdentical compares two run results field by field.
func assertIdentical(t *testing.T, want, got *RunResult, label string) {
	t.Helper()
	if want.Time != got.Time || want.Accesses != got.Accesses || want.Events != got.Events {
		t.Fatalf("%s: headline metrics differ: time %v/%v accesses %d/%d events %d/%d",
			label, want.Time, got.Time, want.Accesses, got.Accesses, want.Events, got.Events)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results are not bit-identical:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestSnapshotResumeBitIdentical is the subsystem's acceptance bar: a
// run snapshotted mid-flight and resumed in a fresh machine must finish
// with results bit-identical to an uninterrupted run — and taking the
// snapshot must not perturb the original machine either.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	for _, policy := range []testPolicy{baselinePolicy, allarmPolicy} {
		t.Run(policy.String(), func(t *testing.T) {
			// Reference: uninterrupted run.
			m1, specs1 := snapBuild(t, policy, false)
			ref, err := m1.Run(specs1)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Snapshot roughly mid-run.
			m2, specs2 := snapBuild(t, policy, false)
			if err := m2.Start(specs2); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if stepUntilFired(t, m2, ref.Events/2) {
				t.Fatalf("run completed before the snapshot point")
			}
			if !m2.CanSnapshot() {
				t.Fatalf("CanSnapshot=false at a window boundary in the measured region")
			}
			var buf bytes.Buffer
			if err := m2.Snapshot(&buf, "meta:test"); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}

			// The snapshotted machine continues unperturbed.
			cont := finishRun(t, m2)
			assertIdentical(t, ref, cont, "snapshot perturbed the running machine")

			// Restore into a fresh machine and finish.
			m3, specs3 := snapBuild(t, policy, false)
			meta, err := m3.Restore(bytes.NewReader(buf.Bytes()), specs3)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if meta != "meta:test" {
				t.Fatalf("meta round-trip: %q", meta)
			}
			resumed := finishRun(t, m3)
			assertIdentical(t, ref, resumed, "resumed run")
		})
	}
}

// TestSnapshotResumeAfterWarmup snapshots inside the measured region of
// a run that had warmup streams: warmup state (caches, probe filters)
// is baked into the component state, statistics were reset at the
// boundary, and the resume must not replay warmup.
func TestSnapshotResumeAfterWarmup(t *testing.T) {
	m1, specs1 := snapBuild(t, allarmPolicy, true)
	ref, err := m1.Run(specs1)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	m2, specs2 := snapBuild(t, allarmPolicy, true)
	if err := m2.Start(specs2); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Step past warmup (phase change shows up as CanSnapshot flipping
	// true), then to roughly three quarters of the whole run.
	if stepUntilFired(t, m2, ref.Events*3/4) {
		t.Fatalf("run completed before the snapshot point")
	}
	if !m2.CanSnapshot() {
		t.Skipf("snapshot point landed outside the measured region")
	}
	var buf bytes.Buffer
	if err := m2.Snapshot(&buf, "warm"); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	m3, specs3 := snapBuild(t, allarmPolicy, true)
	if _, err := m3.Restore(bytes.NewReader(buf.Bytes()), specs3); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resumed := finishRun(t, m3)
	assertIdentical(t, ref, resumed, "resumed warmed run")
}

// TestSnapshotGuards verifies the refusal paths: no run, warmup phase,
// invariant checker enabled, restore into a dirty machine.
func TestSnapshotGuards(t *testing.T) {
	m, specs := snapBuild(t, baselinePolicy, false)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, ""); err == nil {
		t.Fatalf("Snapshot before Start succeeded")
	}
	if m.CanSnapshot() {
		t.Fatalf("CanSnapshot true before Start")
	}

	// Checker on: both directions refused.
	cfg := testConfig(baselinePolicy)
	mc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if mc.CanSnapshot() {
		t.Fatalf("CanSnapshot true with the invariant checker on")
	}

	// A machine that has run already cannot be a restore target.
	if err := m.Start(specs); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stepUntilFired(t, m, 1)
	if _, err := m.Restore(bytes.NewReader(nil), specs); err == nil {
		t.Fatalf("Restore into an active machine succeeded")
	}
}

// TestRestoreRejectsCorruption flips and truncates checkpoint bytes and
// expects clean errors (never a panic, never a silently wrong machine).
func TestRestoreRejectsCorruption(t *testing.T) {
	m, specs := snapBuild(t, allarmPolicy, false)
	if err := m.Start(specs); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stepUntilFired(t, m, 20000)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, "corrupt-me"); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("NOPE"), blob[4:]...),
		"truncated": blob[:len(blob)/2],
		"short":     blob[:len(blob)-1],
	}
	// Bit flips across the blob (header, payload, trailer CRC).
	for _, off := range []int{7, len(blob) / 3, len(blob) / 2, len(blob) - 2} {
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x40
		cases[fmt.Sprintf("flip@%d", off)] = flipped
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			fresh, fspecs := snapBuild(t, allarmPolicy, false)
			if _, err := fresh.Restore(bytes.NewReader(data), fspecs); err == nil {
				t.Fatalf("corrupted checkpoint restored without error")
			}
		})
	}

	// Mismatched machine shape: wrong thread count.
	fresh, fspecs := snapBuild(t, allarmPolicy, false)
	if _, err := fresh.Restore(bytes.NewReader(blob), fspecs[:2]); err == nil {
		t.Fatalf("restore with wrong thread count succeeded")
	}

	// Wrong policy: the directory codec must notice.
	wrongPol, wpSpecs := snapBuild(t, baselinePolicy, false)
	if _, err := wrongPol.Restore(bytes.NewReader(blob), wpSpecs); err == nil {
		t.Fatalf("restore under a different policy succeeded")
	}
}

// TestRestoreRejectsRepeatedSeq gives the first pending event of a real
// checkpoint the seq of the second, behind a valid CRC: two events
// sharing a seq have no defined pop order, so Restore must refuse them.
func TestRestoreRejectsRepeatedSeq(t *testing.T) {
	m, specs := snapBuild(t, allarmPolicy, false)
	if err := m.Start(specs); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stepUntilFired(t, m, 20000)
	var seqs []uint64
	m.Engine().ForEachPending(func(_ sim.Time, seq uint64, _ sim.Handler) { seqs = append(seqs, seq) })
	if len(seqs) < 2 {
		t.Fatalf("%d events pending, want at least 2", len(seqs))
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, ""); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob := buf.Bytes()
	fresh, fspecs := snapBuild(t, allarmPolicy, false)
	if _, err := fresh.Restore(bytes.NewReader(blob), fspecs); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}

	// The heap section is its marker and the event count, then
	// (time, seq, handler) records in ForEachPending order.
	marker := binary.LittleEndian.AppendUint64(nil, uint64(len("heap")))
	marker = append(marker, "heap"...)
	i := bytes.LastIndex(blob, marker)
	if i < 0 {
		t.Fatal("heap section not found")
	}
	first := i + len(marker) + 8 + 8 // the first record's seq
	if got := binary.LittleEndian.Uint64(blob[first:]); got != seqs[0] {
		t.Fatalf("first record's seq is %d, want %d", got, seqs[0])
	}
	dup := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(dup[first:], seqs[1])
	n := len(dup) - 4
	binary.LittleEndian.PutUint32(dup[n:], crc32.Checksum(dup[:n], crc32.MakeTable(crc32.Castagnoli)))
	fresh, fspecs = snapBuild(t, allarmPolicy, false)
	if _, err := fresh.Restore(bytes.NewReader(dup), fspecs); err == nil || !strings.Contains(err.Error(), "repeats event seq") {
		t.Fatalf("repeated seq: err = %v, want a repeated-seq error", err)
	}
}

// twoSpaceBuild is snapBuild's multiprocess (Fig. 4) shape: two copies
// of a two-thread workload, each in its own address space over the one
// physical map. leak, when set, hands out a frame no page maps.
func twoSpaceBuild(t *testing.T, leak bool) (*Machine, []ThreadSpec) {
	t.Helper()
	cfg := testConfig(baselinePolicy)
	cfg.CheckInvariants = false
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wl := synthetic(t, stressParams(2, 1000))
	var specs []ThreadSpec
	for p := 0; p < 2; p++ {
		space := m.NewAddressSpace()
		preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(2*p + th) })
		for th := 0; th < 2; th++ {
			specs = append(specs, ThreadSpec{
				Node: mem.NodeID(2*p + th), Stream: wl.Stream(th, uint64(42+p)), Space: space,
				Name: fmt.Sprintf("proc%d/%d", p, th),
			})
		}
	}
	if leak {
		m.phys.AllocFrame(0)
	}
	return m, specs
}

// TestRestoreRejectsCrossSpaceFrames: each address space's page table
// is valid on its own, yet the machine must refuse a checkpoint whose
// second space maps the first space's frame, or whose live frames are
// not all mapped — either would let two pages share one frame.
func TestRestoreRejectsCrossSpaceFrames(t *testing.T) {
	snapshot := func(leak bool) []byte {
		m, specs := twoSpaceBuild(t, leak)
		if err := m.Start(specs); err != nil {
			t.Fatalf("Start: %v", err)
		}
		stepUntilFired(t, m, 2000)
		var buf bytes.Buffer
		if err := m.Snapshot(&buf, ""); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return buf.Bytes()
	}
	restore := func(blob []byte) error {
		m, specs := twoSpaceBuild(t, false)
		_, err := m.Restore(bytes.NewReader(blob), specs)
		return err
	}
	blob := snapshot(false)
	if err := restore(blob); err != nil {
		t.Fatalf("intact two-space checkpoint: %v", err)
	}

	// Each space section is its marker, policy, four stats counters and
	// the entry count, then (page, frame, home, next-touch) entries.
	marker := binary.LittleEndian.AppendUint64(nil, uint64(len("space")))
	marker = append(marker, "space"...)
	firstPTE := func(from int) int {
		i := bytes.Index(blob[from:], marker)
		if i < 0 {
			t.Fatal("space section not found")
		}
		return from + i + len(marker) + 8 + 4*8 + 8
	}
	a := firstPTE(0)
	b := firstPTE(a)
	aliased := bytes.Clone(blob)
	copy(aliased[b+8:b+24], blob[a+8:a+24]) // the first space's frame and home
	n := len(aliased) - 4
	binary.LittleEndian.PutUint32(aliased[n:], crc32.Checksum(aliased[:n], crc32.MakeTable(crc32.Castagnoli)))
	if err := restore(aliased); err == nil || !strings.Contains(err.Error(), "already mapped") {
		t.Errorf("aliased frame: err = %v, want an already-mapped frame", err)
	}

	if err := restore(snapshot(true)); err == nil || !strings.Contains(err.Error(), "live frames") {
		t.Errorf("unmapped live frame: err = %v, want a mapped/live mismatch", err)
	}
}
