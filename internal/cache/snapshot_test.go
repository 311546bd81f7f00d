package cache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"allarm/internal/checkpoint"
	"allarm/internal/rng"
)

// liveHier returns a small hierarchy after a seeded mix of loads, stores,
// fills in every state, invalidations and downgrades, so both levels hold
// lines, dirty and untracked ones included, beside empty ways.
func liveHier() *Hierarchy {
	h := newHier()
	r := rng.New(7)
	states := []State{Shared, Exclusive, Owned, Modified}
	for i := 0; i < 200; i++ {
		a := line(r.Intn(64))
		switch r.Intn(4) {
		case 0:
			h.Invalidate(h.Find(a))
		case 1:
			h.Downgrade(h.Find(a))
		default:
			if res := h.Access(a, r.Bool(0.3)); res.Outcome != Hit {
				h.Fill(a, states[r.Intn(len(states))], r.Bool(0.2), uint64(i))
			}
		}
	}
	return h
}

// hierPayload encodes h and returns the payload, without framing.
func hierPayload(tb testing.TB, h *Hierarchy) []byte {
	e := checkpoint.NewEncoder("")
	h.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Close(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	head := 4 + 2 + 8 + 8 // magic, version, empty meta, payload length
	return b[head : len(b)-4]
}

// frame wraps a payload as a checkpoint with an empty meta and a valid
// CRC, so the decoder under test sees the bytes as intact.
func frame(p []byte) []byte {
	b := []byte("ALCK")
	b = binary.LittleEndian.AppendUint16(b, checkpoint.Format)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
	b = append(b, p...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// decodeHier decodes a framed payload into a fresh hierarchy and returns
// it with the number of payload bytes the decode consumed.
func decodeHier(tb testing.TB, p []byte) (*Hierarchy, int, error) {
	dec, err := checkpoint.NewDecoder(bytes.NewReader(frame(p)))
	if err != nil {
		tb.Fatal(err)
	}
	h := newHier()
	err = h.DecodeState(dec)
	return h, len(p) - dec.Remaining(), err
}

func TestHierarchySnapshotRoundTrip(t *testing.T) {
	live := liveHier()
	p := hierPayload(t, live)
	h, n, err := decodeHier(t, p)
	if err != nil || n != len(p) {
		t.Fatalf("decode: %v (%d of %d bytes)", err, n, len(p))
	}
	if !bytes.Equal(hierPayload(t, h), p) {
		t.Fatal("restored hierarchy re-encodes differently")
	}
	// The restored copy replays the original's replacement decisions.
	for i := 0; i < 64; i++ {
		a := line(i * 3)
		r1, r2 := live.Access(a, i%2 == 0), h.Access(a, i%2 == 0)
		if r1.Outcome != r2.Outcome || r1.Level != r2.Level || len(r1.Victims) != len(r2.Victims) {
			t.Fatalf("access %d: %+v vs %+v", i, r1, r2)
		}
		if r1.Outcome != Hit {
			live.Fill(a, Exclusive, false, 0)
			h.Fill(a, Exclusive, false, 0)
		}
	}
}

// FuzzHierarchyDecodeState feeds mutated hierarchy state, framed behind
// a valid CRC, to DecodeState: it must fail with an error, never panic,
// and a state it accepts must re-encode to exactly the bytes it read.
func FuzzHierarchyDecodeState(f *testing.F) {
	f.Add(hierPayload(f, liveHier()))
	f.Add(hierPayload(f, newHier()))
	f.Fuzz(func(t *testing.T, p []byte) {
		h, n, err := decodeHier(t, p)
		if err != nil {
			return
		}
		if got := hierPayload(t, h); !bytes.Equal(got, p[:n]) {
			t.Fatal("accepted state does not re-encode byte for byte")
		}
	})
}
