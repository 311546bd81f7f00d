// Package checkpoint implements the versioned binary snapshot format
// behind machine-state checkpoints (gem5-style checkpoint & resume).
//
// A checkpoint is a single self-delimiting blob:
//
//	magic   "ALCK" (4 bytes)
//	version uint16 little-endian (Format)
//	meta    length-prefixed string (caller identity, e.g. a job
//	        fingerprint; verified by the consumer, not this package)
//	length  uint64 little-endian payload byte count
//	payload the encoded sections
//	crc     uint32 little-endian CRC-32 (Castagnoli) over everything
//	        from the magic through the payload
//
// The payload is a flat sequence of primitive values written by an
// Encoder and read back — in exactly the same order — by a Decoder.
// Section markers (length-prefixed names) are interleaved so a reader
// that drifts out of sync fails fast with a named location instead of
// decoding garbage. The CRC is verified before any payload byte is
// interpreted, so truncated, corrupted or short-written files are
// rejected up front; a version mismatch is detected from the fixed
// header alone. Consumers treat any error as "no checkpoint" and fall
// back to a full re-simulation — the simulator can always regenerate.
//
// Everything is fixed-width little-endian: the format's compatibility
// surface is golden-tested (format_test.go) and must not drift with
// platform or Go release.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
)

// Format is the current checkpoint format version. Bump it whenever the
// encoded layout changes incompatibly; decoders reject other versions.
const Format = 1

// magic identifies a checkpoint blob.
var magic = [4]byte{'A', 'L', 'C', 'K'}

// maxCheckpointBytes bounds how much a decoder will buffer: machine
// snapshots are megabytes; anything claiming more is corrupt.
const maxCheckpointBytes = 1 << 30

// castagnoli is the CRC-32C table (one-time init).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder writes one checkpoint. Values are buffered and flushed —
// with header and CRC — by Close; a failed underlying write surfaces
// there.
type Encoder struct {
	meta string
	buf  []byte
}

// NewEncoder starts a checkpoint with the given meta string (the
// caller's identity/fingerprint; see Decoder.Meta).
func NewEncoder(meta string) *Encoder {
	return &Encoder{meta: meta, buf: make([]byte, 0, 4096)}
}

// Grow reserves room for n more payload bytes, so a caller that knows
// roughly how large its checkpoint will be (say, from the previous one)
// pays for one buffer instead of a chain of doublings.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Size returns the payload bytes written so far.
func (e *Encoder) Size() int { return len(e.buf) }

// Section writes a named marker delimiting the next group of values.
func (e *Encoder) Section(name string) { e.String(name) }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 writes a fixed-width uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 writes a fixed-width uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 writes a fixed-width int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 writes a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(v []byte) {
	e.U64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(v string) {
	e.U64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Len writes a collection length (helper that keeps call sites honest
// about what the value is).
func (e *Encoder) Len(n int) { e.U64(uint64(n)) }

// Close frames the buffered payload (magic, version, meta, length,
// payload, CRC) and writes it to w.
func (e *Encoder) Close(w io.Writer) error {
	head := make([]byte, 0, len(magic)+2+8+len(e.meta)+8)
	head = append(head, magic[:]...)
	head = binary.LittleEndian.AppendUint16(head, Format)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(e.meta)))
	head = append(head, e.meta...)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(e.buf)))

	crc := crc32.Update(0, castagnoli, head)
	crc = crc32.Update(crc, castagnoli, e.buf)

	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(e.buf); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// Decoder reads one checkpoint. NewDecoder buffers and CRC-verifies
// the whole blob before returning, so every subsequent read works on
// proven-intact bytes; decode errors after that indicate a format bug
// or a version drift the header did not capture, never silent file
// damage. Errors are sticky: after the first failure every read
// returns zero values and Err reports the cause.
type Decoder struct {
	meta string
	buf  []byte
	off  int
	err  error
}

// NewDecoder reads, frames and CRC-verifies a checkpoint from r.
func NewDecoder(r io.Reader) (*Decoder, error) {
	var head [6]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	if [4]byte(head[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != Format {
		return nil, fmt.Errorf("checkpoint: format version %d (want %d)", v, Format)
	}
	crc := crc32.Update(0, castagnoli, head[:])

	readLen := func() (uint64, []byte, error) {
		var lb [8]byte
		if _, err := io.ReadFull(r, lb[:]); err != nil {
			return 0, nil, err
		}
		return binary.LittleEndian.Uint64(lb[:]), lb[:], nil
	}
	metaLen, lb, err := readLen()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading meta length: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, lb)
	if metaLen > maxCheckpointBytes {
		return nil, fmt.Errorf("checkpoint: meta length %d out of range", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("checkpoint: reading meta: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, meta)

	payloadLen, lb, err := readLen()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload length: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, lb)
	if payloadLen > maxCheckpointBytes {
		return nil, fmt.Errorf("checkpoint: payload length %d out of range", payloadLen)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated payload: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, payload)

	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated CRC: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (file %08x, computed %08x)", got, crc)
	}
	return &Decoder{meta: string(meta), buf: payload}, nil
}

// Meta returns the checkpoint's meta string (the writer's fingerprint).
func (d *Decoder) Meta() string { return d.meta }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports unread payload bytes (a post-decode sanity check:
// a clean restore consumes the payload exactly).
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("payload exhausted at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Expect reads a section marker and fails unless it matches name.
func (d *Decoder) Expect(name string) {
	got := d.String()
	if d.err == nil && got != name {
		d.fail("section %q where %q expected", got, name)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a fixed-width uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed-width int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes reads a length-prefixed byte slice.
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("byte slice length %d exceeds remaining payload", n)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.take(int(n)))
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d exceeds remaining payload", n)
		return ""
	}
	return string(d.take(int(n)))
}

// Len reads a collection length and bounds-checks it against limit and
// the remaining payload, so a corrupt count cannot drive a huge
// allocation. Every counted element encodes at least one byte, so a
// count above the bytes left is corrupt.
func (d *Decoder) Len(limit int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(limit) {
		d.fail("collection length %d exceeds limit %d", n, limit)
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("collection length %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		return 0
	}
	return int(n)
}

// EncodeStruct writes every exported field of the struct pointed to by
// ptr, in declaration order. Supported field types: booleans, all
// fixed-size integers (and named types over them, e.g. sim.Time,
// mem.PAddr), int/uint, and float64. It panics on unexported fields or
// unsupported kinds — stats structs with hidden state must be encoded
// by hand in their own package, never silently truncated.
func EncodeStruct(e *Encoder, ptr any) {
	v := reflect.ValueOf(ptr).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("checkpoint: EncodeStruct(%s): unexported field %s", t, f.Name))
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			e.Bool(fv.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			e.I64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			e.U64(fv.Uint())
		case reflect.Float64:
			e.F64(fv.Float())
		case reflect.Struct:
			EncodeStruct(e, fv.Addr().Interface())
		default:
			panic(fmt.Sprintf("checkpoint: EncodeStruct(%s): unsupported field %s (%s)", t, f.Name, fv.Kind()))
		}
	}
}

// DecodeStruct is EncodeStruct's mirror: it fills the struct pointed to
// by ptr from the decoder, field by field in declaration order.
func DecodeStruct(d *Decoder, ptr any) {
	v := reflect.ValueOf(ptr).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("checkpoint: DecodeStruct(%s): unexported field %s", t, f.Name))
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(d.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(d.I64())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(d.U64())
		case reflect.Float64:
			fv.SetFloat(d.F64())
		case reflect.Struct:
			DecodeStruct(d, fv.Addr().Interface())
		default:
			panic(fmt.Sprintf("checkpoint: DecodeStruct(%s): unsupported field %s (%s)", t, f.Name, fv.Kind()))
		}
	}
}
