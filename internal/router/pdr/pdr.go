// Package pdr implements the Partitioned Dimension-Order Router of the
// paper's related work (Chalasani & Boppana, HPCA'96; May et al., HiPER):
// the router is split into an X-module and a Y-module, each with a 3x3
// crossbar, but — unlike RoCo — the two modules are intertwined: a packet
// that changes dimension (or ejects) must take concatenated switch
// traversals, crossing the X-module's crossbar into an internal transfer
// buffer and then the Y-module's crossbar. The paper contrasts this with
// RoCo's fully decoupled modules; this implementation lets the comparison
// be measured. PDR is a dimension-order design and therefore supports XY
// routing only.
//
// Structure (60 flits of buffering, matching the other routers):
//
//	X-module 3x3: inputs {fromE, fromW, fromPE} -> outputs {E, W, toY}
//	Y-module 3x3: inputs {fromN, fromS, fromX}  -> outputs {N, S, eject}
//
// with 2 VCs of 5-flit buffers per input port.
package pdr

import (
	"fmt"
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

const (
	// VCsPerPort is the number of VCs per input port.
	VCsPerPort = 2
	// BufferDepth is the per-VC depth: 6 ports x 2 VCs x 5 flits = 60.
	BufferDepth = 5
	// NumVCs is the router-wide VC namespace.
	NumVCs = 6 * VCsPerPort

	// Input port indexes.
	portFromE  = 0 // X-module: flits traveling West
	portFromW  = 1 // X-module: flits traveling East
	portFromPE = 2 // X-module: injection
	portFromN  = 3 // Y-module: flits traveling South
	portFromS  = 4 // Y-module: flits traveling North
	portFromX  = 5 // Y-module: internal transfer from the X-module
	numPorts   = 6

	// Module-local output slots.
	outE, outW, outToY   = 0, 1, 2
	outN, outS, outEject = 0, 1, 2
	numOutsPerMod        = 3
)

// portOfVC returns the input port owning VC id.
func portOfVC(id int) int { return id / VCsPerPort }

// arrivalPort maps an arrival side to the input port.
func arrivalPort(from topology.Direction) int {
	switch from {
	case topology.East:
		return portFromE
	case topology.West:
		return portFromW
	case topology.North:
		return portFromN
	case topology.South:
		return portFromS
	default:
		panic(fmt.Sprintf("pdr: no arrival port for side %s", from))
	}
}

// Router is the PDR baseline-extension router: the shared chassis, with
// the internal X-to-Y transfer as its chained second crossbar stage, plus
// the two modules' separable allocators. The modules are intertwined (the
// Y-module depends on the X-module for injection, transfer and ejection),
// so any fault blocks the whole node: the chassis's ApplyFault.
type Router struct {
	router.Chassis

	inArb  [numPorts]arbiter.RoundRobin         // per input port (2:1)
	outArb [2][numOutsPerMod]arbiter.RoundRobin // per module output (3:1)
}

// xModuleMask covers the X-module's channels (fromE, fromW, fromPE) in the
// router-wide id namespace.
const xModuleMask = uint64(1)<<(portFromN*VCsPerPort) - 1

// portMask returns the channels of input port p.
func portMask(p int) uint64 { return uint64(1<<VCsPerPort-1) << uint(p*VCsPerPort) }

// New returns a PDR router for the given node. The engine must use XY
// routing: PDR is a dimension-order design.
func New(id int, engine *router.RouteEngine) *Router {
	if engine.Algorithm() != routing.XY {
		panic("pdr: the partitioned dimension-order router supports XY routing only")
	}
	r := &Router{}
	vcs := make([]*router.VC, NumVCs)
	for v := range vcs {
		vcs[v] = engine.NewVC(v, BufferDepth)
	}
	for p := 0; p < numPorts; p++ {
		r.inArb[p] = arbiter.NewRoundRobin(VCsPerPort)
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			r.outArb[m][o] = arbiter.NewRoundRobin(3)
		}
	}
	for b := range r.VAArb {
		r.SizeVAArb(b, NumVCs, NumVCs)
	}
	r.InitChassis(id, engine, vcs, BufferDepth, VCsPerPort)
	for _, d := range topology.CardinalDirections {
		r.RestrictSide(d, portMask(arrivalPort(d)))
	}
	// The transfer leg's book tracks the fromX channels' credits and grant
	// order like an external link book pointed at this router.
	transfer := router.NewOutVCBook(NumVCs, BufferDepth)
	for v := 0; v < NumVCs; v++ {
		if portOfVC(v) != portFromX {
			transfer.SetDepth(v, 0)
		}
	}
	r.AddTransferLeg(transfer, xModuleMask, portMask(portFromX))
	r.Candidates = r.candidates
	// All injection enters through the X-module's PE port (dimension order
	// starts in X).
	r.Injection = func(*flit.Flit) uint64 { return portMask(portFromPE) }
	return r
}

// moduleOutOf returns (module, output slot) for a packet in port with the
// given route at this router.
func moduleOutOf(port int, outPort topology.Direction) (int, int) {
	if port <= portFromPE { // X-module
		switch outPort {
		case topology.East:
			return 0, outE
		case topology.West:
			return 0, outW
		default:
			// N, S or Local: transfer into the Y-module first.
			return 0, outToY
		}
	}
	switch outPort { // Y-module
	case topology.North:
		return 1, outN
	case topology.South:
		return 1, outS
	case topology.Local:
		return 1, outEject
	default:
		panic(fmt.Sprintf("pdr: Y-module packet routed %s", outPort))
	}
}

// candidates is the PDR VC candidate rule for an external link: the
// channels of the input port that the link leaving through out arrives
// on at the next router.
func (r *Router) candidates(_ *flit.Flit, out, _ topology.Direction) uint64 {
	return portMask(arrivalPort(out.Opposite()))
}

// Tick advances the router one cycle: the chassis's opening phases, then
// VA over both legs and the two modules' switch allocation.
func (r *Router) Tick(cycle int64) {
	if r.TickFront(cycle) {
		r.allocateVCs(cycle)
		r.allocateSwitch(cycle)
	}
}

// allocateVCs handles both allocation legs: external links (downstream
// router channels) and the internal X-to-Y transfer (local fromX
// channels). Requesters come off the needVA bitmap; candidates are bitmap
// intersections of the alive and claimable masks.
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
		r.Act.VAOps++
		out := vc.OutPort()
		port := portOfVC(id)
		if _, slot := moduleOutOf(port, out); port <= portFromPE && slot == outToY {
			// Internal leg: claim a local fromX channel. The feeder for
			// internal transfers is recorded as Local (no link credits).
			// No claimable channel means no request, and no speculative
			// SA either.
			if avail := r.ClaimableMask(topology.Local); avail != 0 {
				r.Request(router.TransferLeg, bits.TrailingZeros64(avail), id, out)
			}
			continue
		}
		if out == topology.Local {
			// Y-module ejection: the PE interface always has room.
			vc.GrantEject()
			continue
		}
		nextOut, avail, ok := r.Lookahead(vc, out)
		if !ok {
			continue
		}
		if avail &= r.candidates(vc.Front(), out, nextOut); avail != 0 {
			r.Request(int(out), bits.TrailingZeros64(avail), id, nextOut)
		} else {
			r.VAFailed |= 1 << uint(id)
		}
	}
	r.GrantVA()
}

// moduleLegs lists each module's crossbar outputs, slot by slot, as the
// chassis names them: the X-module's E, W and transfer into the Y-module,
// the Y-module's N, S and ejection.
var moduleLegs = [2][numOutsPerMod]int{
	{int(topology.East), int(topology.West), router.TransferLeg},
	{int(topology.North), int(topology.South), int(topology.Local)},
}

// allocateSwitch runs the two 3x3 separable switch allocations (doomed
// fronts do not bid) and forwards the winners: externally, internally
// into the Y-module, or to the PE.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.VAFailed == 0 {
		return
	}
	ready, _ := r.SwitchRequests(saReady, cycle, true)
	var nom [numPorts]router.Nominee
	r.Nominate(ready, r.inArb[:], nom[:])
	// Stage 2: per module output, arbitrate among the module's three ports.
	for m := range moduleLegs {
		r.GrantOutputs(nom[m*3:m*3+3], r.outArb[m][:], moduleLegs[m][:], cycle)
	}
}
