package core

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
)

// SaveState serializes the router's mutable state inside the chassis
// framing: the arbiters and mirrors, then the Hardware Recycling fault
// state. Structure (VC shapes, arbiter sizes, which outputs exist) is
// rebuilt from configuration on resume, and the per-tick scratch carries
// nothing across cycle boundaries.
func (r *Router) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	r.SaveChannels(e, c)
	for b := range r.VAArb {
		r.SaveVAArb(e, b)
	}
	for m := 0; m < 2; m++ {
		for p := 0; p < 2; p++ {
			for d := 0; d < 2; d++ {
				r.saArb[m][p][d].SaveState(e)
			}
			r.outArb[m][p].SaveState(e)
			r.outSel[m][p].SaveState(e)
		}
		r.mirror[m].SaveState(e)
	}
	r.SaveInjection(e)
	e.Bool(r.Blocked(Row))
	e.Bool(r.Blocked(Col))
	e.Bool(r.saShared[0])
	e.Bool(r.saShared[1])
	e.Bool(r.rcFault)
	e.Bool(r.vaBusy[0])
	e.Bool(r.vaBusy[1])
	r.SaveCounters(e)
}

// LoadState restores state written by SaveState into a freshly built
// router of the same configuration.
func (r *Router) LoadState(d *snapshot.Decoder, c *flit.Codec) {
	if r.LoadChannels(d, c); d.Err() != nil {
		return
	}
	for b := range r.VAArb {
		r.LoadVAArb(d, b)
	}
	for m := 0; m < 2; m++ {
		for p := 0; p < 2; p++ {
			for dd := 0; dd < 2; dd++ {
				r.saArb[m][p][dd].LoadState(d)
			}
			r.outArb[m][p].LoadState(d)
			r.outSel[m][p].LoadState(d)
		}
		r.mirror[m].LoadState(d)
	}
	r.LoadInjection(d)
	r.Offline = 0
	for m := Module(0); m < numModules; m++ {
		if d.Bool() {
			r.Offline |= moduleVCMask(m)
		}
	}
	r.saShared[0] = d.Bool()
	r.saShared[1] = d.Bool()
	r.rcFault = d.Bool()
	r.vaBusy[0] = d.Bool()
	r.vaBusy[1] = d.Bool()
	r.LoadCounters(d)
}
