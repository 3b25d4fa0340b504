// Package generic implements the paper's first baseline: a conventional
// two-stage, five-port virtual-channel wormhole router (Figure 1a). All
// five input ports (N/E/S/W/PE) hold 3 VCs of 4-flit-deep buffers (60 flits
// per router), a monolithic 5x5 crossbar connects every input to every
// output, and allocation is separable and speculative: head flits perform
// VA and SA in parallel, wasting the switch slot when speculation fails.
//
// Flits destined for the local PE traverse the crossbar to the PE port like
// any other flit — the two extra cycles the RoCo router's early ejection
// saves.
package generic

import (
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

const (
	// VCsPerPort is the number of virtual channels per input port.
	VCsPerPort = 3
	// BufferDepth is the per-VC buffer depth in flits. 5 ports x 3 VCs x 4
	// flits = 60 flits per router, the paper's generic configuration.
	BufferDepth = 4

	numPorts  = 5
	numReqs   = numPorts * VCsPerPort
	xFirstVC  = 0 // XY-YX routing: VCs 0 and 2 carry X-first packets
	yFirstVC  = 1 // XY-YX routing: VC 1 carries Y-first packets
	xFirstVC2 = 2
)

// Router is the generic 5-port baseline: the shared chassis plus the
// separable speculative allocators of a monolithic 5x5 crossbar. Its
// channels are port-major (grantee id port*VCsPerPort + vc), and each link
// addresses only its own port's VCs. Its operation is unified across its
// components, so any permanent fault takes the whole router off-line
// (paper Section 4): the chassis's ApplyFault.
type Router struct {
	router.Chassis

	torus bool // running a torus (flat or multi-chip)

	inArb  [numPorts]arbiter.RoundRobin
	outArb [numPorts]arbiter.RoundRobin

	// vaRotate is each channel's rotating first-fit cursor for the VA
	// input stage.
	vaRotate [numReqs]int
}

// New returns a generic router for the given node.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{}
	if engine.Topology().Wraps() {
		if engine.Algorithm() != routing.XY {
			panic("generic: the torus extension supports XY routing only")
		}
		r.torus = true
	}
	vcs := make([]*router.VC, 0, numReqs)
	for p := 0; p < numPorts; p++ {
		for v := 0; v < VCsPerPort; v++ {
			vcs = append(vcs, engine.NewVC(v, BufferDepth))
		}
		r.inArb[p] = arbiter.NewRoundRobin(VCsPerPort)
		r.outArb[p] = arbiter.NewRoundRobin(numPorts)
		r.SizeVAArb(p, VCsPerPort, numReqs)
	}
	r.InitChassis(id, engine, vcs, BufferDepth, VCsPerPort)
	r.PerPortNamespace(VCsPerPort)
	r.Candidates = r.candidates
	r.Injection = r.injection
	return r
}

// modeClasses returns the VCs of a port a packet may occupy under the
// routing algorithm's class discipline: under XY-YX, VCs 0 and 2 carry
// X-first packets and VC 1 Y-first ones. XY is acyclic on any channel,
// and adaptive routing is deadlock-free via the odd-even turn model, so
// otherwise all three are freely usable.
func (r *Router) modeClasses(f *flit.Flit) uint64 {
	if r.Engine.Algorithm() == routing.XYYX {
		if f.Mode == flit.YFirst {
			return 1 << yFirstVC
		}
		return 1<<xFirstVC | 1<<xFirstVC2
	}
	return 1<<VCsPerPort - 1
}

// injection is the generic injection rule: the PE port's VCs of the
// packet's mode class.
func (r *Router) injection(f *flit.Flit) uint64 {
	return r.modeClasses(f) << (topology.Local * VCsPerPort)
}

// candidates is the generic VC candidate rule: the downstream port's VCs
// a head leaving through out may be allocated, respecting the class
// discipline: mode classes under XY-YX, dateline classes on a torus.
func (r *Router) candidates(f *flit.Flit, out, _ topology.Direction) uint64 {
	if !r.torus {
		return r.modeClasses(f)
	}
	// Dateline discipline: VCs 0 and 2 carry packets that have not crossed
	// their current dimension's dateline; VC 1 carries packets that have
	// (including this very hop). The class switch breaks the ring's
	// channel-dependency cycle.
	crossed := f.CrossedY
	if out.IsX() {
		crossed = f.CrossedX
	}
	if crossed || r.CrossesDateline(out) {
		return 1 << 1
	}
	return 1<<0 | 1<<2
}

// Tick advances the router one cycle: the chassis's opening phases, then
// VA (separable, one iteration per cycle, speculative with SA), then SA
// and switch traversal.
func (r *Router) Tick(cycle int64) {
	if r.TickFront(cycle) {
		r.allocateVCs(cycle)
		r.allocateSwitch(cycle)
	}
}

// allocateVCs runs the input-then-output separable VC allocation pass.
// Requesters come straight off the router's needVA bitmap; the only
// per-channel predicate left to check live is the front flit's ReadyAt.
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
		out := vc.OutPort()
		if out == topology.Local {
			// Ejection at this router: the PE interface always has
			// room, so allocation succeeds immediately.
			vc.GrantEject()
			continue
		}
		r.ChargeVA(vc)
		nextOut, usable, ok := r.Lookahead(vc, out)
		if !ok {
			continue
		}
		// Input stage: nominate one usable channel with a rotating
		// start. The generic VA's wide (5v:1) arbiters make smarter
		// selection impractical at speed (the paper charges the
		// design with iterative re-arbitration); rotating first-fit
		// avoids pathological pile-up while keeping the collision
		// behavior of a plain separable allocator.
		cands := r.candidates(vc.Front(), out, nextOut)
		rest := cands // the candidates from the rotating start up
		for skip := r.vaRotate[id] % bits.OnesCount64(cands); skip > 0; skip-- {
			rest &= rest - 1
		}
		r.vaRotate[id]++
		pick := rest & usable
		if pick == 0 {
			pick = cands & usable // wrap around below the start
		}
		if pick != 0 {
			r.Request(int(out), bits.TrailingZeros64(pick), id, nextOut)
		} else {
			r.VAFailed |= 1 << uint(id)
		}
	}
	r.GrantVA()
}

// allocateSwitch runs the separable, speculative switch allocation: each
// input port nominates one switch-ready channel, each output picks among
// the nominating ports, and the winners traverse.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.VAFailed == 0 {
		return
	}
	ready, _ := r.SwitchRequests(saReady, cycle, false)
	var nom [numPorts]router.Nominee
	r.Nominate(ready, r.inArb[:], nom[:])
	r.GrantOutputs(nom[:], r.outArb[:], router.DirectionLegs[:], cycle)
}
