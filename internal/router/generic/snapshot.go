package generic

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
)

// SaveState serializes the router's mutable state inside the chassis
// framing: the arbiters port by port, then the dead flag and the VA input
// stage's rotating first-fit cursors. The per-tick scratch never carries
// across cycle boundaries and is skipped.
func (r *Router) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	r.SaveChannels(e, c)
	for p := 0; p < numPorts; p++ {
		r.inArb[p].SaveState(e)
		r.outArb[p].SaveState(e)
		r.SaveVAArb(e, p)
	}
	r.SaveInjection(e)
	e.Bool(r.Dead)
	for _, n := range r.vaRotate {
		e.Int(n)
	}
	r.SaveCounters(e)
}

// LoadState restores state written by SaveState into a freshly built
// router of the same configuration.
func (r *Router) LoadState(d *snapshot.Decoder, c *flit.Codec) {
	if r.LoadChannels(d, c); d.Err() != nil {
		return
	}
	for p := 0; p < numPorts; p++ {
		r.inArb[p].LoadState(d)
		r.outArb[p].LoadState(d)
		r.LoadVAArb(d, p)
	}
	r.LoadInjection(d)
	r.Dead = d.Bool()
	for i := range r.vaRotate {
		r.vaRotate[i] = d.Int()
	}
	r.LoadCounters(d)
}
