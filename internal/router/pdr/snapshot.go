package pdr

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/snapshot"
)

// State streams the router's mutable state inside the chassis framing:
// the internal transfer book, the arbiters, then the dead flag (the
// per-tick scratch never crosses a cycle boundary and is skipped).
func (r *Router) State(s *snapshot.Stream, c *flit.Codec) {
	if r.StreamChannels(s, c); s.Err() != nil {
		return
	}
	r.Books[router.TransferLeg].State(s)
	for p := 0; p < numPorts; p++ {
		r.inArb[p].State(s)
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			r.outArb[m][o].State(s)
		}
	}
	for b := range r.VAArb {
		r.StreamVAArb(s, b)
	}
	r.StreamInjection(s)
	s.Bool(&r.Dead)
	r.StreamCounters(s)
}
