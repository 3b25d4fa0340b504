// Package pathsensitive implements the paper's second baseline: the
// Path-Sensitive router of Kim et al. (DAC 2005). Arriving flits are
// grouped into four quadrant path sets (NE, NW, SE, SW) by the position of
// their destination relative to the router; each set holds three VCs of
// 5-flit buffers (60 flits total) and is wired to only its two productive
// outputs through a decomposed 4x4 crossbar with half the connections of a
// full crossbar. The router uses look-ahead routing and early ejection
// like RoCo, but its switch allocation has chained dependencies between
// the quadrant sets (each set nominates a single candidate that may target
// either of its outputs), which is why its non-blocking probability is
// 0.125 against RoCo's 0.25 (paper Table 2).
//
// Deadlock freedom is structural: all minimal moves of a packet stay
// within one quadrant, and quadrant moves are monotone in x+y (or x-y), so
// every channel dependency chain strictly advances across the mesh — no
// cycles, under all three routing algorithms.
package pathsensitive

import (
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

const (
	// VCsPerSet is the number of VCs per quadrant path set.
	VCsPerSet = 3
	// BufferDepth is the per-VC depth: 4 sets x 3 VCs x 5 flits = 60.
	BufferDepth = 5
	// NumVCs is the router-wide VC namespace.
	NumVCs = 4 * VCsPerSet

	numSets = 4
)

// groupFor returns the VC group within a quadrant set for an arrival side:
// each set's three VCs hold "flits from possible directions from the
// previous router" (DAC'05) — one group per incoming link of the quadrant
// plus one for local injection. The injection group being dedicated keeps
// transit traffic from starving the PE.
func groupFor(q routing.Quadrant, from topology.Direction) int {
	outs := q.Outputs()
	switch from {
	case outs[0].Opposite():
		return 0
	case outs[1].Opposite():
		return 1
	default:
		return 2 // local injection
	}
}

// Router is the Path-Sensitive baseline: the shared chassis plus the
// chained two-stage allocation of the decomposed crossbar. Every link
// addresses the router-wide channel namespace (any arriving link can feed
// any quadrant set). Like the generic router it has no independent
// modules to degrade into, so any fault blocks the whole node (paper
// Section 5.4 treats both baselines this way): the chassis's ApplyFault.
type Router struct {
	router.Chassis

	setArb [numSets]arbiter.RoundRobin // SA stage 1: one 3:1 arbiter per set
	outArb [5]arbiter.RoundRobin       // SA stage 2: 2:1 per output
}

// New returns a Path-Sensitive router for the given node.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{}
	vcs := make([]*router.VC, NumVCs)
	for v := range vcs {
		vcs[v] = engine.NewVC(v, BufferDepth)
	}
	for s := 0; s < numSets; s++ {
		r.setArb[s] = arbiter.NewRoundRobin(VCsPerSet)
	}
	for _, d := range topology.CardinalDirections {
		r.outArb[d] = arbiter.NewRoundRobin(numSets)
		r.SizeVAArb(int(d), NumVCs, NumVCs)
	}
	r.InitChassis(id, engine, vcs, BufferDepth, VCsPerSet)
	r.EarlyEject = true
	r.Candidates = r.candidates
	return r
}

// packetQuadrant returns the path set a packet travels in: the quadrant of
// its destination relative to its source, fixed for the whole journey.
func (r *Router) packetQuadrant(f *flit.Flit) routing.Quadrant {
	topo := r.Engine.Topology()
	return routing.PacketQuadrant(topo.Coord(f.Src), topo.Coord(f.Dst))
}

// TryInject offers the next flit of the PE's current packet; a new packet
// starts in its quadrant set's dedicated injection group.
func (r *Router) TryInject(f *flit.Flit, cycle int64) bool {
	if r.Dead {
		return false
	}
	if r.Loopback(f, cycle) {
		return true
	}
	if !f.Type.IsHead() {
		return r.InjectBody(f, cycle)
	}
	if r.InjVC >= 0 {
		return false
	}
	q := r.packetQuadrant(f)
	return r.InjectInto(f, int(q)*VCsPerSet+groupFor(q, topology.Local), cycle)
}

// candidates is the path-sensitive VC candidate rule: the one channel of
// the packet's quadrant set at the next router that holds arrivals over
// the link leaving through out.
func (r *Router) candidates(head *flit.Flit, out, _ topology.Direction) uint64 {
	q := r.packetQuadrant(head)
	return 1 << uint(int(q)*VCsPerSet+groupFor(q, out.Opposite()))
}

// Tick advances the router one cycle: the chassis's opening phases, then
// VA and the chained switch allocation.
func (r *Router) Tick(cycle int64) {
	if r.TickFront(cycle) {
		r.allocateVCs(cycle)
		r.allocateSwitch(cycle)
	}
}

// allocateVCs runs the separable VC allocation pass: each head flit
// requests a channel in the downstream router's quadrant set for its
// destination. Requesters come off the needVA bitmap; the single
// deterministic candidate is checked with one bit test against the
// downstream alive-and-claimable mask.
func (r *Router) allocateVCs(cycle int64) {
	need := r.BeginVA()
	if need == 0 {
		return
	}
	for m := need; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.VCs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		r.ChargeVA(vc)
		out := vc.OutPort()
		nextOut, avail, ok := r.Lookahead(vc, out)
		if !ok {
			continue
		}
		if pick := r.candidates(vc.Front(), out, nextOut) & avail; pick != 0 {
			r.Request(int(out), bits.TrailingZeros64(pick), id, nextOut)
		} else {
			r.VAFailed |= 1 << uint(id)
		}
	}
	r.GrantVA()
}

// allocateSwitch runs the chained two-stage allocation over the decomposed
// crossbar: stage 1 nominates one VC per quadrant set, stage 2 arbitrates
// each output between its two adjacent sets.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.VAFailed == 0 {
		return
	}
	ready, _ := r.SwitchRequests(saReady, cycle, false)
	var nom [numSets]router.Nominee
	r.Nominate(ready, r.setArb[:], nom[:])
	for _, out := range topology.CardinalDirections {
		var reqs uint64
		for s := range nom {
			if nom[s].Leg == int(out) {
				reqs |= 1 << uint(s)
			}
		}
		w := r.outArb[out].GrantMask(reqs)
		if w < 0 {
			continue
		}
		r.Act.SAGrants++
		if f, o := r.Traverse(nom[w].ID, cycle); f != nil {
			r.Drive(f, o)
		}
	}
}
