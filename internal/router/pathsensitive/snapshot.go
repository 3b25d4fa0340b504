package pathsensitive

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// State streams the router's mutable state inside the chassis framing:
// the set and output arbiters, then the dead flag (the per-tick scratch
// never crosses a cycle boundary and is skipped).
func (r *Router) State(s *snapshot.Stream, c *flit.Codec) {
	if r.StreamChannels(s, c); s.Err() != nil {
		return
	}
	for i := 0; i < numSets; i++ {
		r.setArb[i].State(s)
	}
	for _, d := range topology.CardinalDirections {
		r.outArb[d].State(s)
		r.StreamVAArb(s, int(d))
	}
	r.StreamInjection(s)
	s.Bool(&r.Dead)
	r.StreamCounters(s)
}
