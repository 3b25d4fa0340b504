package generic

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
)

// State streams the router's mutable state inside the chassis framing:
// the arbiters port by port, then the dead flag and the VA input stage's
// rotating first-fit cursors. The per-tick scratch never carries across
// cycle boundaries and is skipped.
func (r *Router) State(s *snapshot.Stream, c *flit.Codec) {
	if r.StreamChannels(s, c); s.Err() != nil {
		return
	}
	for p := 0; p < numPorts; p++ {
		r.inArb[p].State(s)
		r.outArb[p].State(s)
		r.StreamVAArb(s, p)
	}
	r.StreamInjection(s)
	s.Bool(&r.Dead)
	for i := range r.vaRotate {
		s.Int(&r.vaRotate[i])
	}
	r.StreamCounters(s)
}
