package pathsensitive

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// SaveState serializes the router's mutable state inside the chassis
// framing: the set and output arbiters, then the dead flag (the per-tick
// scratch never crosses a cycle boundary and is skipped).
func (r *Router) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	r.SaveChannels(e, c)
	for s := 0; s < numSets; s++ {
		r.setArb[s].SaveState(e)
	}
	for _, d := range topology.CardinalDirections {
		r.outArb[d].SaveState(e)
		r.SaveVAArb(e, int(d))
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
	for s := 0; s < numSets; s++ {
		r.setArb[s].LoadState(d)
	}
	for _, dir := range topology.CardinalDirections {
		r.outArb[dir].LoadState(d)
		r.LoadVAArb(d, int(dir))
	}
	r.LoadInjection(d)
	r.Dead = d.Bool()
	r.LoadCounters(d)
}
