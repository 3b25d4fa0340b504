package arbiter

import "github.com/rocosim/roco/internal/snapshot"

// State streams the priority pointer; a loaded pointer outside the
// arbiter's range is corruption.
func (a *RoundRobin) State(s *snapshot.Stream) {
	snapshot.Narrow(s, &a.next)
	if a.next >= a.n {
		s.Corruptf("round-robin pointer %d out of range [0,%d)", a.next, a.n)
	}
}

// State streams the mirror allocator: its global arbiter pointer and the
// primary-port toggle.
func (m *Mirror) State(s *snapshot.Stream) {
	m.global.State(s)
	snapshot.Narrow(s, &m.primary)
	if m.primary > 1 {
		s.Corruptf("mirror primary %d", m.primary)
	}
}
