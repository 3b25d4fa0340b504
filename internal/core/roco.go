package core

import (
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// Router is the RoCo decoupled router: the shared chassis plus the Table 1
// channel classes, the two modules' VC and Mirroring-Effect switch
// allocators, and the Hardware Recycling fault state. A blocked module's
// channels are the chassis's offline set; the router never dies whole.
type Router struct {
	router.Chassis

	// cfg is the run's shared, read-only Table 1 row (see tables).
	cfg *VCConfig

	saArb  [2][2][2]arbiter.RoundRobin
	mirror [2]arbiter.Mirror
	outArb [2][2]arbiter.RoundRobin // separable fallback: per (module, port) nomination
	outSel [2][2]arbiter.RoundRobin // separable fallback: per (module, direction) selection

	// disableMirror replaces the Mirroring-Effect allocator with a plain
	// separable output stage (one 2:1 arbiter per output, no mirrored
	// global decision). Ablation only: quantifies what the mirror buys.
	disableMirror bool

	// Fault state (Hardware Recycling, paper Section 4).
	saShared [2]bool // SA offloaded onto the module's VA arbiters
	rcFault  bool    // routing unit failed: neighbors double-route
	vaBusy   [2]bool // VA handled a header this cycle (gates shared SA)
}

// Module bit masks over the router-wide VC id namespace: ids 0-5 are the
// Row-Module's channels, ids 6-11 the Column-Module's.
const (
	modVCMask = uint64(1)<<(2*VCsPerSet) - 1
	rowVCMask = modVCMask
	colVCMask = modVCMask << (2 * VCsPerSet)
)

// moduleVCMask returns the VC-id bitmap of module m's channels.
func moduleVCMask(m Module) uint64 {
	if m == Row {
		return rowVCMask
	}
	return colVCMask
}

// New returns a RoCo router for the given node, configured per Table 1 for
// the engine's routing algorithm.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{cfg: &tables[engine.Algorithm()]}
	vcs := make([]*router.VC, NumVCs)
	for v := range vcs {
		vcs[v] = engine.NewVC(v, BufferDepth)
		vcs[v].Class = r.cfg.Class[v]
	}
	for _, d := range topology.CardinalDirections {
		r.SizeVAArb(int(d), NumVCs, NumVCs)
	}
	for m := 0; m < 2; m++ {
		for p := 0; p < 2; p++ {
			for d := 0; d < 2; d++ {
				r.saArb[m][p][d] = arbiter.NewRoundRobin(VCsPerSet)
			}
			r.outArb[m][p] = arbiter.NewRoundRobin(2)
			r.outSel[m][p] = arbiter.NewRoundRobin(2)
		}
		r.mirror[m] = arbiter.NewMirror()
	}
	r.InitChassis(id, engine, vcs, BufferDepth, VCsPerSet)
	r.EarlyEject = true
	r.Candidates = r.candidates
	r.Injection = r.injection
	// Guided flit queuing: a flit lands in the module of its output.
	for _, d := range topology.CardinalDirections {
		r.GuideQueue(d, moduleVCMask(ModuleOf(d)))
	}
	return r
}

// DisableMirror switches the router's switch allocation to a plain
// separable output stage. Call before traffic flows; ablation use only.
func (r *Router) DisableMirror() { r.disableMirror = true }

// ApplyFault reacts to a permanent fault per the Hardware Recycling table:
// RC failures are absorbed by downstream double routing, buffer failures by
// virtual queuing over the bypass path, SA failures by offloading onto the
// idle VA arbiters, and VA/crossbar/MUX-DEMUX failures by isolating the
// afflicted module while the other module keeps full service.
func (r *Router) ApplyFault(flt fault.Fault) {
	r.NoteFault()
	m := Module(flt.Module % 2)
	switch flt.Component {
	case fault.RC:
		r.rcFault = true
	case fault.Buffer:
		vc := r.VCs[flt.VC%NumVCs]
		vc.Faulty = true
		vc.FaultPenalty = 2 // round-trip of the virtual-queuing handshake
		// Installed live, the failed buffer's contents are lost; virtual
		// queuing protects only traffic arriving after the reconfiguration.
		vc.DoomResidents()
	case fault.SA:
		r.saShared[m] = true
	case fault.VA, fault.Crossbar, fault.MuxDemux:
		// Traffic resident in the isolated module can never traverse its
		// crossbar again; taking it offline condemns it so the wormholes
		// drain as drops.
		r.TakeOffline(moduleVCMask(m))
	}
}

// Blocked reports whether module m is isolated.
func (r *Router) Blocked(m Module) bool { return r.Offline&moduleVCMask(m) != 0 }

// CanServe reports whether a flit entering on side from and leaving
// through out can be served. Early ejection (out == Local) survives module
// faults; a cardinal output requires its module alive and a VC class for
// the (from, out) transition to exist in the configuration.
func (r *Router) CanServe(from, out topology.Direction) bool {
	if r.Severed(from) || r.Severed(out) {
		return false
	}
	switch out {
	case topology.Local:
		return true
	case topology.Invalid:
		// "Any service at all": at least one module still operates (the
		// decoupled design's graceful degradation) or ejection suffices.
		return !r.Blocked(Row) || !r.Blocked(Col)
	}
	if r.Blocked(ModuleOf(out)) {
		return false
	}
	turn := routing.TurnOf(from, out)
	admit := r.cfg.AdmitMask(turn, flit.XFirst, out) | r.cfg.AdmitMask(turn, flit.YFirst, out)
	return admit&^r.Offline != 0
}

// CongestionCost estimates pressure on output out from the credit
// occupancy of its book; a blocked module is infinitely expensive.
func (r *Router) CongestionCost(out topology.Direction) float64 {
	if out.IsCardinal() && r.Blocked(ModuleOf(out)) {
		return 1e9
	}
	return r.Chassis.CongestionCost(out)
}

// SkipCycles replays n idle ticks in O(1). An idle RoCo tick always counts
// a cycle (blocked modules do not stop the clock) and runs idleRounds.
func (r *Router) SkipCycles(n int64) {
	r.Act.Cycles += n
	r.idleRounds(n)
}

// idleRounds replays what n idle ticks do to the allocators: the vaBusy
// latches clear, and each unblocked module's Mirror allocation round runs
// with no requests — which still toggles the primary port. (With saShared
// the module also reaches Allocate on idle ticks, because vaBusy is false;
// the disableMirror fallback uses round-robin arbiters, which hold still.)
func (r *Router) idleRounds(n int64) {
	r.vaBusy[Row], r.vaBusy[Col] = false, false
	if !r.disableMirror {
		for m := Module(0); m < numModules; m++ {
			if !r.Blocked(m) {
				r.mirror[m].SkipRounds(n)
			}
		}
	}
}

// injection is the RoCo injection rule: the in-service channels of the
// injection class of the packet's first dimension (Injxy, or Injyx when
// it leaves in Y).
func (r *Router) injection(head *flit.Flit) uint64 {
	class := routing.InjectX
	if head.OutPort.IsY() {
		class = routing.InjectY
	}
	var m uint64
	for id, cl := range r.cfg.Class {
		if cl == class {
			m |= 1 << uint(id)
		}
	}
	return m &^ r.Offline
}

// Tick advances the router one cycle. Unlike the baselines it always
// counts the cycle and runs its idle allocator rounds, and its recovery
// sweep hunts grants whose downstream channel died (the RoCo
// fault-handshake hardware reacting to the re-propagated credit state).
func (r *Router) Tick(cycle int64) {
	r.Act.Cycles++
	r.ReturnCredits()
	r.Arrive(cycle)
	if r.FastIdle() {
		r.idleRounds(1)
		return
	}
	r.Recover(cycle, true)
	r.vaBusy[Row], r.vaBusy[Col] = false, false
	r.allocateVCs(cycle)
	for m := Module(0); m < numModules; m++ {
		r.allocateSwitch(m, cycle)
	}
}

// candidates is the RoCo VC candidate rule: the Table 1 channels whose
// class and direction admit a head of its mode making the transition from
// out's arrival side at the next router toward nextOut. A head that ejects
// early at the next router (nextOut not cardinal) needs no channel.
func (r *Router) candidates(head *flit.Flit, out, nextOut topology.Direction) uint64 {
	if !nextOut.IsCardinal() {
		return 0
	}
	return r.cfg.AdmitMask(routing.TurnOf(out.Opposite(), nextOut), head.Mode, nextOut)
}

// allocateVCs runs the two modules' separable VC allocators (they are
// physically independent; one pass covers both since requests never cross
// modules). Requesters come off the needVA bitmap with blocked modules
// masked out; candidate selection intersects the candidate rule's mask
// with the downstream alive-and-claimable mask.
func (r *Router) allocateVCs(cycle int64) {
	need := r.BeginVA() &^ r.Offline
	if need == 0 {
		return
	}
	for mm := need; mm != 0; mm &= mm - 1 {
		id := bits.TrailingZeros64(mm)
		vc := r.VCs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		r.vaBusy[ModuleOfVC(id)] = true
		r.ChargeVA(vc)
		out := vc.OutPort()
		if nextOut, avail, ok := r.Lookahead(vc, out); ok {
			if c, ok := leastLoaded(r.candidates(vc.Front(), out, nextOut)&avail, r.Books[out]); ok {
				r.Request(int(out), c, id, nextOut)
				continue
			}
		}
		// A head bound for downstream early ejection needs no channel at
		// all; anything else failed allocation this cycle.
		if !vc.EjectNext() {
			r.VAFailed |= 1 << uint(id)
		}
	}
	r.GrantVA()
}

// leastLoaded returns the channel in mask with the fewest grants queued in
// book (the lowest on a tie), spreading back-to-back packets across
// equivalent channels.
func leastLoaded(mask uint64, book *router.OutVCBook) (int, bool) {
	best, bestLoad := -1, 0
	for m := mask; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		if load := book.QueuedGrants(id); best < 0 || load < bestLoad {
			best, bestLoad = id, load
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// allocateSwitch runs one module's Mirroring-Effect switch allocation and
// forwards the winners through its 2x2 crossbar.
func (r *Router) allocateSwitch(m Module, cycle int64) {
	if r.Blocked(m) {
		return
	}
	if r.saShared[m] && r.vaBusy[m] {
		// SA fault with resource sharing: the VA arbiters stand in for the
		// broken SA hardware, but only on cycles they are not processing a
		// header (the VA is a per-packet unit; the paper's Figure 7).
		return
	}

	var has [2][2]bool
	var winner [2][2]int
	base := int(m) * 2 * VCsPerSet
	mask := moduleVCMask(m)

	// Switch-ready channels with credits, split per output direction into
	// module-local bits. Failed speculation: the parallel SA requests were
	// issued and arbitrated (energy), but a speculative grant has lower
	// priority than any real request and never displaces one (Peh-Dally
	// speculation), so they cannot affect the matching — they are charged
	// as SAOps only.
	_, byLeg := r.SwitchRequests(r.Alloc().SAReady()&mask, cycle, false)
	outs := m.Outputs()
	readyByDir := [2]uint64{byLeg[outs[0]] >> uint(base), byLeg[outs[1]] >> uint(base)}
	var specByDir [2]uint64
	for mm := r.VAFailed & mask; mm != 0; mm &= mm - 1 {
		id := bits.TrailingZeros64(mm)
		if op := r.VCs[id].OutPort(); op.IsCardinal() {
			specByDir[DirSlot(op)] |= 1 << uint(id-base)
		}
	}

	for p := 0; p < 2; p++ {
		for d := 0; d < 2; d++ {
			winner[p][d] = -1
			reqs := (readyByDir[d] >> uint(p*VCsPerSet)) & (1<<VCsPerSet - 1)
			spec := (specByDir[d] >> uint(p*VCsPerSet)) & (1<<VCsPerSet - 1)
			r.Act.SAOps += int64(bits.OnesCount64(reqs) + bits.OnesCount64(spec))
			w := r.saArb[m][p][d].GrantMask(reqs)
			if w >= 0 {
				winner[p][d] = base + p*VCsPerSet + w
				has[p][d] = true
			}
		}
	}

	var dec arbiter.MirrorDecision
	if r.disableMirror {
		// Separable fallback: each input port nominates one direction
		// (its local RR pick among candidate directions), then each
		// output arbitrates among nominating ports — the chained
		// allocation the Mirroring Effect replaces.
		var nominated [2]int // direction nominated per port, or -1
		for p := 0; p < 2; p++ {
			nominated[p] = -1
			var reqs uint64
			if has[p][0] {
				reqs |= 1
			}
			if has[p][1] {
				reqs |= 2
			}
			if w := r.outArb[m][p].GrantMask(reqs); w >= 0 {
				nominated[p] = w
			}
		}
		dec.OutWinner = [2]int{-1, -1}
		for d := 0; d < 2; d++ {
			var reqs uint64
			if nominated[0] == d {
				reqs |= 1
			}
			if nominated[1] == d {
				reqs |= 2
			}
			dec.OutWinner[d] = r.outSel[m][d].GrantMask(reqs)
		}
	} else {
		dec = r.mirror[m].Allocate(has)
	}
	for d := 0; d < 2; d++ {
		p := dec.OutWinner[d]
		if p < 0 {
			continue
		}
		r.Act.SAGrants++
		if f, out := r.Traverse(winner[p][d], cycle); f != nil {
			if r.rcFault {
				// The failed RC unit makes the next router double-route.
				f.Penalty = 1
			}
			r.Drive(f, out)
		}
	}
}
