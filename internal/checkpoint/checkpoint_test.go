package checkpoint

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// TestRoundTrip exercises every primitive through a full encode/decode
// cycle.
func TestRoundTrip(t *testing.T) {
	e := NewEncoder("job:abc123")
	e.Section("alpha")
	e.U8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.U64(1<<63 + 12345)
	e.I64(-987654321)
	e.F64(3.14159)
	e.Bytes([]byte{1, 2, 3})
	e.String("hello")
	e.Len(3) // a counted collection: three one-byte elements follow
	for i := uint8(0); i < 3; i++ {
		e.U8(i)
	}
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.Meta() != "job:abc123" {
		t.Fatalf("meta = %q", d.Meta())
	}
	d.Expect("alpha")
	if got := d.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatalf("Bool round-trip failed")
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<63+12345 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -987654321 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Len(100); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	for i := uint8(0); i < 3; i++ {
		if got := d.U8(); got != i {
			t.Fatalf("element %d = %d", i, got)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

// TestGoldenFormat pins the exact byte layout of format version 1: a
// checkpoint written by any future version of the code must still decode
// blobs with this layout, and any unintentional layout change fails
// here first.
func TestGoldenFormat(t *testing.T) {
	e := NewEncoder("m")
	e.Section("s")
	e.U8(0x7F)
	e.U64(0x0102030405060708)
	e.Bool(true)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}

	const golden = "" +
		"414c434b" + // magic "ALCK"
		"0100" + // format version 1, little-endian u16
		"0100000000000000" + "6d" + // meta length 1 (u64 LE), "m"
		"1300000000000000" + // payload length 19
		"0100000000000000" + "73" + // Section: string len 1 (u64 LE), "s"
		"7f" + // U8
		"0807060504030201" + // U64 little-endian
		"01" // Bool true
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatalf("bad golden literal: %v", err)
	}
	got := buf.Bytes()
	if len(got) != len(want)+4 {
		t.Fatalf("blob length %d, want %d + 4 CRC bytes", len(got), len(want))
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("layout drift:\ngot  %x\nwant %x", got[:len(want)], want)
	}

	// And the golden blob (with its CRC) decodes.
	d, err := NewDecoder(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("NewDecoder(golden): %v", err)
	}
	d.Expect("s")
	if d.U8() != 0x7F || d.U64() != 0x0102030405060708 || !d.Bool() {
		t.Fatalf("golden payload decode mismatch")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}

// TestCorruptionDetected verifies a flip of any single byte in the blob
// is caught — by the magic check, the version check, a length bound or
// the CRC — before any value is handed to the caller.
func TestCorruptionDetected(t *testing.T) {
	e := NewEncoder("meta")
	e.Section("body")
	for i := 0; i < 64; i++ {
		e.U64(uint64(i) * 0x9E3779B97F4A7C15)
	}
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	blob := buf.Bytes()

	for off := 0; off < len(blob); off++ {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x01
		if d, err := NewDecoder(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at offset %d accepted (meta %q)", off, d.Meta())
		}
	}
}

// TestTruncationDetected verifies every possible truncation point fails
// cleanly.
func TestTruncationDetected(t *testing.T) {
	e := NewEncoder("meta")
	e.U64(42)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	blob := buf.Bytes()
	for n := 0; n < len(blob); n++ {
		if _, err := NewDecoder(bytes.NewReader(blob[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(blob))
		}
	}
}

// TestVersionSkewRejected bumps the version field and expects a
// descriptive refusal.
func TestVersionSkewRejected(t *testing.T) {
	e := NewEncoder("")
	e.U64(1)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	blob := buf.Bytes()
	blob[4] = byte(Format + 1)
	_, err := NewDecoder(bytes.NewReader(blob))
	if err == nil {
		t.Fatalf("future format version accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew error not descriptive: %v", err)
	}
}

// TestDecoderStickyError verifies reads past the payload set a sticky
// error and return zero values instead of panicking.
func TestDecoderStickyError(t *testing.T) {
	e := NewEncoder("")
	e.U8(9)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.U8() != 9 {
		t.Fatalf("first read wrong")
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("read past end returned %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatalf("no sticky error after overrun")
	}
	if got := d.String(); got != "" {
		t.Fatalf("read after error returned %q", got)
	}
}

// TestExpectMismatch verifies section-name drift is reported with both
// names.
func TestExpectMismatch(t *testing.T) {
	e := NewEncoder("")
	e.Section("old-name")
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Expect("new-name")
	err = d.Err()
	if err == nil {
		t.Fatalf("section mismatch accepted")
	}
	if !strings.Contains(err.Error(), "old-name") || !strings.Contains(err.Error(), "new-name") {
		t.Fatalf("mismatch error missing names: %v", err)
	}
}

// TestLenBound verifies hostile counts are clamped by the caller-given
// limit.
func TestLenBound(t *testing.T) {
	e := NewEncoder("")
	e.Len(1 << 40)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.Len(1000); got != 0 {
		t.Fatalf("oversized count returned %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatalf("oversized count not rejected")
	}
}

// TestLenBeyondPayload: a count within the caller's limit but larger
// than the bytes left cannot be honest (every element takes a byte).
func TestLenBeyondPayload(t *testing.T) {
	e := NewEncoder("")
	e.Len(1 << 20)
	e.U8(1)
	e.U8(2)
	e.U8(3)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.Len(1 << 30); got != 0 || d.Err() == nil ||
		!strings.Contains(d.Err().Error(), "exceeds remaining payload") {
		t.Fatalf("count 1<<20 over 3 bytes: got %d, err %v", got, d.Err())
	}
}

type golden struct {
	A uint64
	B bool
	C int64
	F float64
}

// TestStructCodec round-trips a flat stats struct through the reflect
// codec.
func TestStructCodec(t *testing.T) {
	in := golden{A: 77, B: true, C: -9, F: 0.5}
	e := NewEncoder("")
	EncodeStruct(e, &in)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	var out golden
	DecodeStruct(d, &out)
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if in != out {
		t.Fatalf("struct round-trip: %+v vs %+v", in, out)
	}
}

// TestEncoderGrowSize: Grow reserves room without writing, and Size
// counts the payload bytes written.
func TestEncoderGrowSize(t *testing.T) {
	blob := func(grow int) []byte {
		e := NewEncoder("m")
		e.Grow(grow)
		if e.Size() != 0 {
			t.Fatalf("Size after Grow(%d) = %d", grow, e.Size())
		}
		e.Section("s")
		e.U64(7)
		if e.Size() != 8+1+8 {
			t.Fatalf("Size = %d, want 17", e.Size())
		}
		var buf bytes.Buffer
		if err := e.Close(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(blob(0), blob(1<<16)) {
		t.Fatal("Grow changed the checkpoint")
	}
}
