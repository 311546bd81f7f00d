// Package trace provides a compact binary format for memory-access
// traces: capture a workload's streams once and replay them later (or
// feed externally collected traces into the simulator).
//
// Format version 2 (little-endian):
//
//	header:     magic "ALTR" | u16 version | u16 reserved | u32 threads
//	            u32 placements | u32 reserved
//	placement:  u32 thread | u64 page                      (12 bytes)
//	record:     u8 flags (bit0 = write, bit1 = warmup) | u8 thread
//	            u16 reserved | u32 thinkPs | u64 vaddr     (16 bytes)
//
// The placement section records the workload's page-placement regions
// (first toucher per page), and warmup-flagged records carry the
// initialisation pass that precedes the measured region of interest.
// Together they make a replayed run bit-identical to the live run that
// was captured: placement, warmup, access order and picosecond-exact
// think times all survive the round trip.
//
// Version 1 traces (12-byte records, nanosecond think, no placements or
// warmup) are still readable.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"allarm/internal/workload"
)

// Magic identifies a trace stream.
var Magic = [4]byte{'A', 'L', 'T', 'R'}

// Format versions. Writers produce Version; readers accept both.
const (
	Version1 = 1
	Version  = 2
)

// Wire sizes of one record, by version.
const (
	recordBytesV1    = 12
	recordBytesV2    = 16
	placementBytesV2 = 12
)

// Record flag bits (v2).
const (
	flagWrite  = 1 << 0
	flagWarmup = 1 << 1
)

// Placement declares a page's first toucher, mirroring
// Workload.ForEachPage: the simulator pre-faults the page at the
// declared thread's node before the run.
type Placement struct {
	Page   uint64
	Thread int
}

// Record is one traced access. Warmup records belong to the workload's
// initialisation pass and are replayed before the measured region of
// interest.
type Record struct {
	Thread int
	Warmup bool
	Access workload.Access
}

// Writer encodes trace records in the current format version.
type Writer struct {
	w       *bufio.Writer
	threads int
	wrote   uint64
}

// NewWriter writes a version-2 header (thread count and page-placement
// section) and returns a writer for the access records.
func NewWriter(w io.Writer, threads int, placements []Placement) (*Writer, error) {
	if threads <= 0 || threads > 255 {
		return nil, fmt.Errorf("trace: thread count %d out of range [1,255]", threads)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint16(hdr[0:], Version)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(threads))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(placements)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	for _, p := range placements {
		if p.Thread < 0 || p.Thread >= threads {
			return nil, fmt.Errorf("trace: placement thread %d out of range [0,%d)", p.Thread, threads)
		}
		var buf [placementBytesV2]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(p.Thread))
		binary.LittleEndian.PutUint64(buf[4:], p.Page)
		if _, err := bw.Write(buf[:]); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw, threads: threads}, nil
}

// Write appends one record. Think times are stored in picoseconds,
// saturating at ~4.29 ms (far beyond any modelled compute gap).
func (w *Writer) Write(r Record) error {
	if r.Thread < 0 || r.Thread >= w.threads {
		return fmt.Errorf("trace: thread %d out of range [0,%d)", r.Thread, w.threads)
	}
	var buf [recordBytesV2]byte
	if r.Access.Write {
		buf[0] |= flagWrite
	}
	if r.Warmup {
		buf[0] |= flagWarmup
	}
	buf[1] = byte(r.Thread)
	thinkPs := int64(r.Access.Think)
	if thinkPs < 0 {
		thinkPs = 0
	}
	if thinkPs > math.MaxUint32 {
		thinkPs = math.MaxUint32
	}
	binary.LittleEndian.PutUint32(buf[4:], uint32(thinkPs))
	binary.LittleEndian.PutUint64(buf[8:], r.Access.VAddr)
	_, err := w.w.Write(buf[:])
	w.wrote++
	return err
}

// Records returns the number of records written.
func (w *Writer) Records() uint64 { return w.wrote }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes trace records of either format version.
type Reader struct {
	r          *bufio.Reader
	version    int
	threads    int
	placements []Placement
}

// NewReader validates the header, loads the placement section (v2) and
// returns a reader positioned at the first access record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	version := int(binary.LittleEndian.Uint16(hdr[0:]))
	if version != Version1 && version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	threads := int(binary.LittleEndian.Uint32(hdr[4:]))
	if threads <= 0 || threads > 255 {
		return nil, fmt.Errorf("trace: corrupt thread count %d", threads)
	}
	rd := &Reader{r: br, version: version, threads: threads}
	if version >= Version {
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return nil, fmt.Errorf("trace: reading placement header: %w", err)
		}
		count := binary.LittleEndian.Uint32(ext[0:])
		for i := uint32(0); i < count; i++ {
			var buf [placementBytesV2]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("trace: reading placement %d: %w", i, err)
			}
			thread := int(binary.LittleEndian.Uint32(buf[0:]))
			if thread >= threads {
				return nil, fmt.Errorf("trace: placement thread %d out of range", thread)
			}
			rd.placements = append(rd.placements, Placement{
				Page:   binary.LittleEndian.Uint64(buf[4:]),
				Thread: thread,
			})
		}
	}
	return rd, nil
}

// Version returns the trace's format version.
func (r *Reader) Version() int { return r.version }

// Threads returns the trace's thread count.
func (r *Reader) Threads() int { return r.threads }

// Placements returns the page-placement section (empty for v1 traces).
func (r *Reader) Placements() []Placement { return r.placements }

// Read returns the next record, or io.EOF at the end of the trace.
func (r *Reader) Read() (Record, error) {
	if r.version == Version1 {
		return r.readV1()
	}
	var buf [recordBytesV2]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	thread := int(buf[1])
	if thread >= r.threads {
		return Record{}, fmt.Errorf("trace: record thread %d out of range", thread)
	}
	return Record{
		Thread: thread,
		Warmup: buf[0]&flagWarmup != 0,
		Access: workload.Access{
			VAddr: binary.LittleEndian.Uint64(buf[8:]),
			Write: buf[0]&flagWrite != 0,
			Think: workload.Duration(binary.LittleEndian.Uint32(buf[4:])) * workload.Picosecond,
		},
	}, nil
}

// readV1 decodes one legacy 12-byte record (nanosecond-quantised think,
// no warmup flag).
func (r *Reader) readV1() (Record, error) {
	var buf [recordBytesV1]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	thread := int(buf[1])
	if thread >= r.threads {
		return Record{}, fmt.Errorf("trace: record thread %d out of range", thread)
	}
	return Record{
		Thread: thread,
		Access: workload.Access{
			VAddr: binary.LittleEndian.Uint64(buf[4:]),
			Write: buf[0]&flagWrite != 0,
			Think: workload.Duration(binary.LittleEndian.Uint16(buf[2:])) * workload.Nanosecond,
		},
	}, nil
}

// Capture writes a complete replayable trace of wl: its page
// placements, its warmup pass and its measured streams, threads
// interleaved round-robin (the interleaving does not matter for replay:
// records carry their thread). It returns the writer, already flushed,
// for its record count.
func Capture(w io.Writer, wl workload.Workload, seed uint64) (*Writer, error) {
	var placements []Placement
	wl.ForEachPage(func(page uint64, thread int) {
		placements = append(placements, Placement{Page: page, Thread: thread})
	})
	tw, err := NewWriter(w, wl.Threads(), placements)
	if err != nil {
		return nil, err
	}
	warm := make([]workload.Stream, wl.Threads())
	for t := range warm {
		warm[t] = wl.WarmupStream(t, seed)
	}
	if err := drain(tw, warm, true); err != nil {
		return nil, err
	}
	streams := make([]workload.Stream, wl.Threads())
	for t := range streams {
		streams[t] = wl.Stream(t, seed)
	}
	if err := drain(tw, streams, false); err != nil {
		return nil, err
	}
	return tw, tw.Flush()
}

// drain interleaves the streams round-robin into the writer.
func drain(w *Writer, streams []workload.Stream, warmup bool) error {
	live := 0
	for _, s := range streams {
		if s != nil {
			live++
		}
	}
	for live > 0 {
		live = 0
		for t, s := range streams {
			if s == nil {
				continue
			}
			acc, ok := s.Next()
			if !ok {
				streams[t] = nil
				continue
			}
			live++
			if err := w.Write(Record{Thread: t, Warmup: warmup, Access: acc}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replay loads an entire trace and exposes per-thread streams (and the
// captured warmup and page placements) for feeding back into the
// simulator. It implements workload.Workload; the seed arguments are
// ignored, since a replay is exact.
type Replay struct {
	name       string
	threads    int
	perThr     [][]workload.Access
	warm       [][]workload.Access
	placements []Placement
}

// LoadReplay reads all records from r into a replay with the given
// workload name.
func LoadReplay(r *Reader, name string) (*Replay, error) {
	rp := &Replay{
		name:       name,
		threads:    r.Threads(),
		perThr:     make([][]workload.Access, r.Threads()),
		warm:       make([][]workload.Access, r.Threads()),
		placements: r.Placements(),
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return rp, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Warmup {
			rp.warm[rec.Thread] = append(rp.warm[rec.Thread], rec.Access)
		} else {
			rp.perThr[rec.Thread] = append(rp.perThr[rec.Thread], rec.Access)
		}
	}
}

// Name implements workload.Workload.
func (rp *Replay) Name() string { return rp.name }

// Key fingerprints the replay by name, thread count and record counts.
// Rename distinct traces before mixing them in one deduplicated sweep.
func (rp *Replay) Key() string {
	return fmt.Sprintf("trace:%s#%d/%d+%d", rp.name, rp.threads, rp.Records(), rp.WarmupRecords())
}

// Threads implements workload.Workload.
func (rp *Replay) Threads() int { return rp.threads }

// Records returns the measured (non-warmup) record count.
func (rp *Replay) Records() int {
	n := 0
	for _, accs := range rp.perThr {
		n += len(accs)
	}
	return n
}

// WarmupRecords returns the warmup record count.
func (rp *Replay) WarmupRecords() int {
	n := 0
	for _, accs := range rp.warm {
		n += len(accs)
	}
	return n
}

// Stream implements workload.Workload: thread t's replay stream. The
// seed is ignored.
func (rp *Replay) Stream(t int, _ uint64) workload.Stream {
	return &replayStream{accs: rp.perThr[t]}
}

// WarmupStream implements workload.Workload; it returns nil when the
// trace carries no warmup pass for thread t.
func (rp *Replay) WarmupStream(t int, _ uint64) workload.Stream {
	if len(rp.warm[t]) == 0 {
		return nil
	}
	return &replayStream{accs: rp.warm[t]}
}

// ForEachPage implements workload.Workload from the captured placement
// section.
func (rp *Replay) ForEachPage(fn func(page uint64, thread int)) {
	for _, p := range rp.placements {
		fn(p.Page, p.Thread)
	}
}

type replayStream struct {
	accs []workload.Access
	i    int
}

// Next implements workload.Stream.
func (s *replayStream) Next() (workload.Access, bool) {
	if s.i >= len(s.accs) {
		return workload.Access{}, false
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}
