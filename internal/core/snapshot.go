package core

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
)

// State streams the router's mutable state inside the chassis framing:
// the arbiters and mirrors, then the Hardware Recycling fault state.
// Structure (VC shapes, arbiter sizes, which outputs exist) is rebuilt
// from configuration on resume, and the per-tick scratch carries nothing
// across cycle boundaries.
func (r *Router) State(s *snapshot.Stream, c *flit.Codec) {
	if r.StreamChannels(s, c); s.Err() != nil {
		return
	}
	for b := range r.VAArb {
		r.StreamVAArb(s, b)
	}
	for m := 0; m < 2; m++ {
		for p := 0; p < 2; p++ {
			for d := 0; d < 2; d++ {
				r.saArb[m][p][d].State(s)
			}
			r.outArb[m][p].State(s)
			r.outSel[m][p].State(s)
		}
		r.mirror[m].State(s)
	}
	r.StreamInjection(s)
	for m := Module(0); m < numModules; m++ {
		blocked := r.Blocked(m)
		if s.Bool(&blocked); blocked {
			r.Offline |= moduleVCMask(m)
		} else {
			r.Offline &^= moduleVCMask(m)
		}
	}
	s.Bool(&r.saShared[0])
	s.Bool(&r.saShared[1])
	s.Bool(&r.rcFault)
	s.Bool(&r.vaBusy[0])
	s.Bool(&r.vaBusy[1])
	r.StreamCounters(s)
}
