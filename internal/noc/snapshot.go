package noc

import (
	"fmt"

	"allarm/internal/checkpoint"
	"allarm/internal/sim"
)

// EncodeState writes the mesh's mutable state: per-link next-free times
// (link contention carries across a checkpoint) and traffic statistics.
func (m *Mesh) EncodeState(e *checkpoint.Encoder) {
	e.Section("noc")
	e.Len(len(m.free))
	for _, t := range m.free {
		e.I64(int64(t))
	}
	checkpoint.EncodeStruct(e, &m.stats)
}

// DecodeState overwrites the mesh's mutable state. The mesh must have
// the geometry the checkpoint was taken with.
func (m *Mesh) DecodeState(d *checkpoint.Decoder) error {
	d.Expect("noc")
	n := d.Len(len(m.free))
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(m.free) {
		return fmt.Errorf("noc: checkpoint has %d links, mesh has %d", n, len(m.free))
	}
	for i := range m.free {
		m.free[i] = sim.Time(d.I64())
	}
	checkpoint.DecodeStruct(d, &m.stats)
	return d.Err()
}
