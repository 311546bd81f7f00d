package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"allarm/internal/workload"
)

func testWorkload(t *testing.T) *workload.Synthetic {
	t.Helper()
	w, err := workload.NewSynthetic(workload.Params{
		Name: "trace-test", Threads: 3, AccessesPerThread: 100,
		PrivateBytes: 16 << 10, PrivateFrac: 0.6,
		PrivateWriteFrac: 0.4, PrivateHot: 0.5, SeqRunFrac: 0.5,
		SharedBytes: 32 << 10, SharedWriteFrac: 0.3,
		Pattern: workload.Uniform, Init: workload.InterleavedInit,
		Think: 3 * workload.Nanosecond, ThinkJitter: 2 * workload.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameStream asserts two streams are element-wise identical, including
// picosecond-exact think times.
func sameStream(t *testing.T, label string, a, b workload.Stream) {
	t.Helper()
	for i := 0; ; i++ {
		aa, aok := a.Next()
		ba, bok := b.Next()
		if aok != bok {
			t.Fatalf("%s: length mismatch at %d", label, i)
		}
		if !aok {
			return
		}
		if aa != ba {
			t.Fatalf("%s record %d: %+v vs %+v", label, i, aa, ba)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	wl := testWorkload(t)
	var buf bytes.Buffer
	w, err := Capture(&buf, wl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.Records() < 300 {
		t.Fatalf("captured %d records, want >= 300 (warmup + 3x100 measured)", w.Records())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version {
		t.Fatalf("version = %d", r.Version())
	}
	if r.Threads() != 3 {
		t.Fatalf("threads = %d", r.Threads())
	}
	rp, err := LoadReplay(r, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Records() != 300 {
		t.Fatalf("replay holds %d measured records", rp.Records())
	}
	if rp.WarmupRecords() == 0 {
		t.Fatal("warmup pass not captured")
	}

	// Replayed streams must equal the original generator's streams —
	// exactly, including sub-nanosecond think components.
	for th := 0; th < 3; th++ {
		sameStream(t, "measured", wl.Stream(th, 42), rp.Stream(th, 0))
		sameStream(t, "warmup", wl.WarmupStream(th, 42), rp.WarmupStream(th, 0))
	}

	// Placements must equal the workload's ForEachPage declaration, in
	// order.
	var want []Placement
	wl.ForEachPage(func(page uint64, thread int) {
		want = append(want, Placement{Page: page, Thread: thread})
	})
	var got []Placement
	rp.ForEachPage(func(page uint64, thread int) {
		got = append(got, Placement{Page: page, Thread: thread})
	})
	if len(got) != len(want) {
		t.Fatalf("%d placements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestReadV1 crafts a legacy 12-byte-record trace by hand and checks it
// still decodes (nanosecond think, no warmup, no placements).
func TestReadV1(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], Version1)
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	buf.Write(hdr[:])
	var rec [recordBytesV1]byte
	rec[0] = flagWrite
	rec[1] = 1
	binary.LittleEndian.PutUint16(rec[2:], 7) // 7 ns think
	binary.LittleEndian.PutUint64(rec[4:], 0xdeadbeef40)
	buf.Write(rec[:])

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version1 || r.Threads() != 2 || len(r.Placements()) != 0 {
		t.Fatalf("v1 header misparsed: %+v", r)
	}
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Thread: 1, Access: workload.Access{
		VAddr: 0xdeadbeef40, Write: true, Think: 7 * workload.Nanosecond,
	}}
	if got != want {
		t.Fatalf("v1 record = %+v, want %+v", got, want)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(Magic[:])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestUnsupportedVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], 99)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	buf.Write(hdr[:])
	if _, err := NewReader(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, nil)
	w.Write(Record{Thread: 0})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestTruncatedPlacements(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, []Placement{{Page: 0x1000, Thread: 0}})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-4]
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated placement section accepted")
	}
}

func TestWriterRejectsBadThread(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2, nil)
	if err := w.Write(Record{Thread: 5}); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
	if _, err := NewWriter(io.Discard, 0, nil); err == nil {
		t.Fatal("zero-thread writer accepted")
	}
	if _, err := NewWriter(io.Discard, 300, nil); err == nil {
		t.Fatal("too-many-thread writer accepted")
	}
	if _, err := NewWriter(io.Discard, 2, []Placement{{Thread: 9}}); err == nil {
		t.Fatal("out-of-range placement thread accepted")
	}
}

func TestRecordThreadValidationOnRead(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 3, nil)
	w.Write(Record{Thread: 2})
	w.Flush()
	// Corrupt the record's thread byte (offset: 20-byte header + 1).
	data := buf.Bytes()
	data[20+1] = 200
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("corrupt thread id accepted")
	}
}

func TestEmptyTraceEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, nil)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}
