package arbiter

import "github.com/rocosim/roco/internal/snapshot"

// SaveState serializes the priority pointer.
func (a *RoundRobin) SaveState(e *snapshot.Encoder) { e.Int(int(a.next)) }

// LoadState restores a priority pointer written by SaveState; an index
// outside the arbiter's range poisons the decoder.
func (a *RoundRobin) LoadState(d *snapshot.Decoder) {
	next := d.Int()
	if d.Err() != nil {
		return
	}
	if next < 0 || next >= int(a.n) {
		d.Corruptf("round-robin pointer %d out of range [0,%d)", next, a.n)
		return
	}
	a.next = uint8(next)
}

// SaveState serializes the mirror allocator: its global arbiter pointer
// and the primary-port toggle.
func (m *Mirror) SaveState(e *snapshot.Encoder) {
	m.global.SaveState(e)
	e.Int(int(m.primary))
}

// LoadState restores mirror state written by SaveState.
func (m *Mirror) LoadState(d *snapshot.Decoder) {
	m.global.LoadState(d)
	p := d.Int()
	if d.Err() != nil {
		return
	}
	if p != 0 && p != 1 {
		d.Corruptf("mirror primary %d", p)
		return
	}
	m.primary = uint8(p)
}
