package pdr

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/snapshot"
)

// SaveState serializes the router's mutable state inside the chassis
// framing: the internal transfer book, the arbiters, then the dead flag
// (the per-tick scratch never crosses a cycle boundary and is skipped).
func (r *Router) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	r.SaveChannels(e, c)
	r.Books[router.TransferLeg].SaveState(e)
	for p := 0; p < numPorts; p++ {
		r.inArb[p].SaveState(e)
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			r.outArb[m][o].SaveState(e)
		}
	}
	for b := range r.VAArb {
		r.SaveVAArb(e, b)
	}
	r.SaveInjection(e)
	e.Bool(r.Dead)
	r.SaveCounters(e)
}

// LoadState restores state written by SaveState into a freshly built
// router of the same configuration.
func (r *Router) LoadState(d *snapshot.Decoder, c *flit.Codec) {
	if r.LoadChannels(d, c); d.Err() != nil {
		return
	}
	r.Books[router.TransferLeg].LoadState(d)
	for p := 0; p < numPorts; p++ {
		r.inArb[p].LoadState(d)
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			r.outArb[m][o].LoadState(d)
		}
	}
	for b := range r.VAArb {
		r.LoadVAArb(d, b)
	}
	r.LoadInjection(d)
	r.Dead = d.Bool()
	r.LoadCounters(d)
}
