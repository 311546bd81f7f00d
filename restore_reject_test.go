package allarm_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	allarm "allarm"
)

// TestRetiredMemPolicyRejected: every job kind validates the memory
// policy before building a machine, so the retired next-touch value
// fails StartJob and RunCtx with an error.
func TestRetiredMemPolicyRejected(t *testing.T) {
	cfg := fastConfig()
	cfg.MemPolicy = 1
	wl, err := allarm.BenchmarkWorkload("barnes", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	mp := allarm.DefaultMultiProcess()
	for _, job := range []allarm.Job{
		{Benchmark: "barnes", Config: cfg},
		{Workload: wl, Config: cfg},
		{Benchmark: "barnes", Config: cfg, MultiProcess: &mp},
	} {
		if _, err := allarm.StartJob(job); err == nil {
			t.Errorf("StartJob(%s) accepted memory policy 1", job.Key())
		}
		if _, err := job.RunCtx(context.Background()); err == nil {
			t.Errorf("RunCtx(%s) accepted memory policy 1", job.Key())
		}
	}
}

// alckSplit cuts a checkpoint into its header up to the payload length
// (magic, format version and meta; see internal/checkpoint) and its
// payload.
func alckSplit(t testing.TB, blob []byte) (head, payload []byte) {
	t.Helper()
	metaLen := binary.LittleEndian.Uint64(blob[6:])
	h := 6 + 8 + int(metaLen)
	n := binary.LittleEndian.Uint64(blob[h:])
	if uint64(len(blob)) != uint64(h)+8+n+4 {
		t.Fatalf("checkpoint of %d bytes declares a %d-byte payload", len(blob), n)
	}
	return blob[:h], blob[h+8 : len(blob)-4]
}

// alckFrame is alckSplit's inverse: head, the payload's length, the
// payload and the CRC-32C over all of it.
func alckFrame(head, payload []byte) []byte {
	b := append(bytes.Clone(head), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

type corruption struct {
	name, want string // want is a substring of the restore error
	payload    []byte
}

// retiredFieldCorruptions rewrites one field of a checkpoint payload
// that the first-touch-only memory model writes as a constant: the
// address space's placement policy, its migration count, a page's
// next-touch mark, a node's free list and a node's live-frame count.
// Older models wrote other values there; a restore must refuse them.
func retiredFieldCorruptions(t testing.TB, payload []byte) []corruption {
	t.Helper()
	section := func(name string) int {
		marker := binary.LittleEndian.AppendUint64(nil, uint64(len(name)))
		marker = append(marker, name...)
		i := bytes.Index(payload, marker)
		if i < 0 || bytes.Index(payload[i+1:], marker) >= 0 {
			t.Fatalf("want one %q section", name)
		}
		return i + len(marker)
	}
	put := func(off int, v uint64) []byte {
		b := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(payload[off:]) }

	// space: policy, three stats counters, migrations, the entry count,
	// then (page, frame, home, next-touch mark) entries.
	space := section("space")
	migrations := space + 8 + 3*8
	if u64(migrations+8) == 0 {
		t.Fatal("checkpoint maps no page")
	}
	marked := bytes.Clone(payload)
	marked[migrations+8+8+24] = 1

	// phys: node count, node size, then per node its bump pointer,
	// live-frame count and free-list length (then the free frames).
	phys := section("phys")
	bpn := u64(phys + 8)
	node0 := phys + 16
	next := u64(node0)
	if next == 0 || next >= bpn/4096 {
		t.Fatalf("node 0 touched %d of %d frames; want some, not all", next, bpn/4096)
	}
	// Node 0 hands out one more frame and takes it back: its bump
	// pointer grows, its live count does not, and the frame goes on its
	// free list. A model that recycled frames accepted this.
	freed := put(node0, next+1)
	binary.LittleEndian.PutUint64(freed[node0+16:], 1)
	freed = slices.Insert(freed, node0+24, binary.LittleEndian.AppendUint64(nil, next*4096)...)

	return []corruption{
		{"next-touch policy", "placement policy 1", put(space, 1)},
		{"migration", "1 migrations", put(migrations, 1)},
		{"next-touch mark", "next-touch", marked},
		{"free frame", "touched frames", freed},
		{"live count below touched", "touched frames", put(node0+8, next-1)},
	}
}

// goldenPayload reads the committed checkpoint of goldenCheckpointJob.
func goldenPayload(t testing.TB) (head, payload []byte) {
	t.Helper()
	blob, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	head, payload = alckSplit(t, blob)
	if !bytes.Equal(alckFrame(head, payload), blob) {
		t.Fatal("re-framing the fixture's payload does not reproduce it")
	}
	return head, payload
}

// TestResumeRejectsRetiredFields: a checkpoint holding a value of the
// retired next-touch policy or frame recycling must not resume.
func TestResumeRejectsRetiredFields(t *testing.T) {
	job := goldenCheckpointJob()
	head, payload := goldenPayload(t)
	if _, err := allarm.ResumeJob(job, bytes.NewReader(alckFrame(head, payload))); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	for _, c := range retiredFieldCorruptions(t, payload) {
		t.Run(c.name, func(t *testing.T) {
			_, err := allarm.ResumeJob(job, bytes.NewReader(alckFrame(head, c.payload)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// FuzzResumeJob feeds ResumeJob arbitrary payloads under a valid ALCK
// header and CRC, so mutations reach the section decoders. Every input
// must yield an error or a handle, never a panic.
func FuzzResumeJob(f *testing.F) {
	job := goldenCheckpointJob()
	head, payload := goldenPayload(f)
	f.Add(payload)
	for _, c := range retiredFieldCorruptions(f, payload) {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := allarm.ResumeJob(job, bytes.NewReader(alckFrame(head, payload)))
		if err == nil && h == nil {
			t.Fatal("ResumeJob returned neither a handle nor an error")
		}
	})
}
