package power

import "github.com/rocosim/roco/internal/snapshot"

// State streams the energy split.
func (b *Breakdown) State(s *snapshot.Stream) {
	s.F64(&b.BuffersNJ)
	s.F64(&b.CrossbarNJ)
	s.F64(&b.LinksNJ)
	s.F64(&b.ArbitrationNJ)
	s.F64(&b.RoutingNJ)
	s.F64(&b.EjectionNJ)
	s.F64(&b.LeakageNJ)
}
