package router

import (
	"fmt"
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// TransferLeg indexes the internal transfer book in Chassis.Books and
// Chassis.VAArb: the credit book of a router whose two crossbar stages are
// chained through internal channels (PDR's X-to-Y transfer). Single-stage
// routers leave it nil.
const TransferLeg = 5

// maxChannels bounds a router's channel count, and maxInputVCs the VC
// namespace a link addresses; they size the per-cycle VA scratch.
const (
	maxChannels = 16
	maxInputVCs = 12
)

// loopbackVC marks Chassis.InjVC while a self-addressed packet is being
// delivered straight back to the PE.
const loopbackVC = -2

// Chassis is the wormhole/credit/VC substrate every router kind shares.
// It owns the channels and their claims, the links, the credit books and
// the neighbour handshake, fault recovery, the counters, the wait graph,
// injection from the PE, and the tick phases that are the same for every
// allocation policy: credit return, arrivals, the idle fast path, the
// recovery scans, the VA prologue and output stage, the SA credit
// pre-pass, the separable input and output stages and switch traversal.
// A router embeds it and keeps only its policy — how links map onto
// channels, its injection and VC candidate rules, and its switch
// allocation structure — calling the phases from its own Tick in a fixed
// order. The calls are plain method calls on the embedded struct, so the
// hot loop keeps static dispatch.
type Chassis struct {
	// Node is the node the router serves; Engine routes its packets.
	Node   int
	Engine *RouteEngine
	// VCs lists the router's channels in grantee order: channel i is bit i
	// of every allocation mask and grantee i in the output books. It
	// slices vcs, which keeps the channel pointers in the chassis's own
	// cache lines.
	VCs []*VC
	vcs [maxChannels]*VC
	// Books are the output links' credit books by direction, plus the
	// internal transfer leg at TransferLeg.
	Books [TransferLeg + 1]*OutVCBook
	// Neighbors are the routers reached through each output, recorded by
	// AttachOutput from the engine.
	Neighbors [5]Router
	// VAArb holds one arbiter per (book, downstream channel) for the VA
	// output stage, inline; the policy sizes the ones its books use.
	VAArb [TransferLeg + 1][maxInputVCs]arbiter.RoundRobin
	// VAFailed marks the channels whose VC allocation failed this cycle;
	// their parallel switch requests were speculative.
	VAFailed uint64
	// InjVC is the channel owned by the packet being injected, -1 when
	// none, or loopbackVC while a loopback packet is delivered.
	InjVC int
	// Dead reports a node blocked whole by a fault (the baselines' only
	// fault reaction): it drains instead of ticking.
	Dead bool
	// Offline marks channels out of service on a live node (a blocked RoCo
	// module): zero depth and never claimable.
	Offline uint64
	// EarlyEject ejects arriving flits for the local PE off the input
	// decoder, and lets VA grant a head that ejects at the downstream
	// router without a channel.
	EarlyEject bool
	// Candidates is the policy's VC candidate rule, set by its
	// constructor: the downstream channels, in the link's namespace, that
	// a head leaving through out toward nextOut may request, before any
	// availability check. VA calls the rule directly; WaitEdges reads it
	// through this field.
	Candidates func(head *flit.Flit, out, nextOut topology.Direction) uint64
	// Injection is the policy's injection rule, set by its constructor
	// beside Candidates: the channels a new packet from the PE may start
	// in, tried lowest first by TryInject.
	Injection func(head *flit.Flit) uint64
	// Act and Cont are the energy model's activity counters and Figure 3's
	// contention tallies.
	Act  Activity
	Cont Contention

	// deliver and, below, drop are the engine's sinks; InitChassis copies
	// them with the rest of its context (fullTick, broken, reapAge).
	deliver  Sink
	in, out  [5]*Conn
	depth    int // downstream buffer depth the credit books start from
	fullTick bool
	// dateline is a bitmask over the cardinal directions whose hop from
	// this node crosses its dimension's torus dateline (0 on a mesh).
	dateline uint8
	// The switch's crossbar inputs each serve group consecutive channels;
	// inputBit[i] is channel i's input as a one-hot byte.
	group    int
	inputBit [maxChannels]uint8

	// A link arriving on side d addresses channel sideBase[d]+vc for vc <
	// inputVCs, and may reach only the channels in sideMask[d].
	inputVCs int
	sideBase [5]uint8
	sideMask [5]uint64
	// queueMask[o] lists the channels allowed to hold a flit routed to
	// output o (guided queuing); an arrival outside it is a simulator bug.
	queueMask [topology.Invalid + 1]uint64
	// xferFrom lists the channels whose packets leave through the transfer
	// leg unless routed in X; xferTo lists the channels the leg feeds.
	xferFrom, xferTo uint64

	drop       DropSink
	broken     *BrokenSet
	emptySince []int64
	reapAge    int64
	// severed is a bitmask over the cardinal directions of ports cut by a
	// die-to-die interface fault.
	severed uint8
	// alloc holds the allocation bitmaps over the grantee index space.
	alloc AllocState

	// Per-cycle VA scratch: targReq[b][c] collects the requesters of
	// downstream channel c through book b (a bitmap over at most
	// maxChannels requesters), targUsed[b] marks the c with requesters,
	// vaNext records each requester's look-ahead route, and claim caches
	// each output's downstream claimable mask for the cycle (valid where
	// claimOK has the output's bit).
	targReq  [TransferLeg + 1][maxInputVCs]uint16
	targUsed [TransferLeg + 1]uint16
	vaNext   [maxChannels]topology.Direction
	claim    [4]uint64
	claimOK  uint8

	// wrote collects the link halves written since TakeWrites last read
	// it (see WriteMask).
	wrote WriteMask
}

// WriteMask names link halves a router wrote: bit d is the flit half of
// output d, and bit CreditHalf+d the credit half of input d, for each
// cardinal direction d. Pipes are written at three sites only — Drive,
// freeSlot and tickDead — and each sets its bit, so the mask is exactly
// the set of pipes a tick staged traffic on.
type WriteMask uint8

// CreditHalf offsets an input's credit half in a WriteMask.
const CreditHalf = 4

// TakeWrites returns the link halves written since the last call and
// clears the mask. The gated kernel reads it right after each tick to
// advance exactly the pipes that carry traffic and wake their readers.
func (c *Chassis) TakeWrites() WriteMask {
	m := c.wrote
	c.wrote = 0
	return m
}

// InitChassis wires the chassis of node's router over its channels, listed
// in grantee order; depth is the downstream buffer depth the credit books
// start from, and group the number of consecutive channels each crossbar
// input serves. It copies the engine's network-wide context — the sinks,
// the broken-packet registry, the reap horizon, the full-tick switch and
// the node's torus datelines — into the chassis, so the router is complete
// once built. Every link addresses the whole channel list until the policy
// narrows it (PerPortNamespace, RestrictSide).
func (c *Chassis) InitChassis(node int, engine *RouteEngine, vcs []*VC, depth, group int) {
	if len(vcs) > maxChannels {
		panic(fmt.Sprintf("router: %d channels exceed the chassis's %d", len(vcs), maxChannels))
	}
	c.Node, c.Engine, c.depth, c.group = node, engine, depth, group
	c.deliver, c.drop, c.broken = engine.Deliver, engine.Drop, engine.Broken
	c.fullTick = engine.FullTick
	c.reapAge = orphanAge + engine.MaxLinkDelay
	if topo := engine.Topology(); topo.Wraps() {
		at := topo.Coord(node)
		for _, d := range topology.CardinalDirections {
			if routing.TorusHopWraps(topo.Width(), topo.Height(), at, d) {
				c.dateline |= 1 << d
			}
		}
	}
	c.VCs = c.vcs[:copy(c.vcs[:], vcs)]
	for i := range vcs {
		c.inputBit[i] = 1 << uint(i/group)
	}
	c.InjVC = -1
	c.inputVCs = len(vcs)
	all := uint64(1)<<uint(len(vcs)) - 1
	for d := range c.sideMask {
		c.sideMask[d] = all
	}
	for o := range c.queueMask {
		c.queueMask[o] = all
	}
	c.emptySince = make([]int64, len(vcs))
	for i := range c.emptySince {
		c.emptySince[i] = -1
	}
	for i, vc := range vcs {
		vc.bindAlloc(&c.alloc, i)
	}
}

// PerPortNamespace gives every side (the PE port included) its own n
// channels, port-major in the channel list: flit.VC on a link arriving on
// side d indexes channels d*n to d*n+n-1.
func (c *Chassis) PerPortNamespace(n int) {
	c.inputVCs = n
	for d := range c.sideBase {
		c.sideBase[d] = uint8(d * n)
		c.sideMask[d] = (uint64(1)<<uint(n) - 1) << uint(d*n)
	}
}

// SizeVAArb gives book b's first count VA arbiters n request lines each.
func (c *Chassis) SizeVAArb(b, count, n int) {
	for i := range c.VAArb[b][:count] {
		c.VAArb[b][i] = arbiter.NewRoundRobin(n)
	}
}

// RestrictSide limits the channels a link arriving on side d may claim or
// see depth in to mask (PDR's per-arrival-port channels).
func (c *Chassis) RestrictSide(d topology.Direction, mask uint64) { c.sideMask[d] = mask }

// GuideQueue asserts guided flit queuing: a flit arriving for output out
// must land in one of mask's channels.
func (c *Chassis) GuideQueue(out topology.Direction, mask uint64) { c.queueMask[out] = mask }

// AddTransferLeg chains two crossbar stages through internal channels:
// packets in from's channels that are not routed in X cross into the
// channels of to, whose credits book tracks at TransferLeg. The leg's
// claims on to's channels are taken on side Local.
func (c *Chassis) AddTransferLeg(book *OutVCBook, from, to uint64) {
	c.Books[TransferLeg] = book
	c.xferFrom, c.xferTo = from, to
	c.sideMask[topology.Local] = to
}

// viaTransfer reports whether a packet in channel i routed to out leaves
// through the transfer leg.
func (c *Chassis) viaTransfer(i int, out topology.Direction) bool {
	return c.xferFrom&(1<<uint(i)) != 0 && out != topology.Invalid && !out.IsX()
}

// AttachInput wires the link arriving on side d.
func (c *Chassis) AttachInput(d topology.Direction, conn *Conn) { c.in[d] = conn }

// AttachOutput wires the link departing on side d: it records the
// downstream router, found through the engine, as the neighbour across d,
// and sizes the link's credit book from that router's input VCs and
// their current depths.
func (c *Chassis) AttachOutput(d topology.Direction, conn *Conn) {
	down, _ := c.Engine.Topology().Neighbor(c.Node, d)
	nbr := c.Engine.RouterAt(down)
	c.out[d] = conn
	c.Neighbors[d] = nbr
	c.Books[d] = NewOutVCBook(nbr.NumInputVCs(d.Opposite()), c.depth)
	c.RefreshOutput(d)
}

// RefreshOutput re-reads the downstream router's input-VC depths into
// output d's credit book after a runtime fault changed them.
func (c *Chassis) RefreshOutput(d topology.Direction) {
	b, from := c.Books[d], d.Opposite()
	for vc := range b.Size() {
		b.SetDepth(vc, c.Neighbors[d].InputVCDepth(from, vc))
	}
}

// Activity returns the per-component event counters.
func (c *Chassis) Activity() *Activity { return &c.Act }

// Contention returns the switch-conflict tallies.
func (c *Chassis) Contention() *Contention { return &c.Cont }

// ApplyFault is the baselines' reaction to any fault: Kill. The RoCo
// router overrides it with its per-component Hardware Recycling.
func (c *Chassis) ApplyFault(fault.Fault) { c.Kill() }

// Kill blocks the whole node, the baselines' reaction to any fault: their
// operation is unified across components, so nothing survives to degrade
// into. Resident traffic is condemned and drains as drops, later arrivals
// are discarded with their credits returned, and the neighbour handshake
// reports the node unusable.
func (c *Chassis) Kill() {
	c.NoteFault()
	c.Dead = true
	for _, vc := range c.VCs {
		vc.Condemn()
	}
}

// TakeOffline puts the channels in mask out of service on a live node and
// condemns their resident traffic, which can never leave again.
func (c *Chassis) TakeOffline(mask uint64) {
	c.Offline |= mask
	for i, vc := range c.VCs {
		if mask&(1<<uint(i)) != 0 {
			vc.Condemn()
		}
	}
}

// CanServe reports whether traffic entering on from and leaving through
// out can be served: anything on a live node, except across a severed
// die-to-die port. The RoCo router refines it per module and turn.
func (c *Chassis) CanServe(from, out topology.Direction) bool {
	return !c.Dead && !c.Severed(from) && !c.Severed(out)
}

// CongestionCost estimates pressure on output out as the occupied share
// of the downstream buffers (consumed credits).
func (c *Chassis) CongestionCost(out topology.Direction) float64 {
	b := c.Books[out]
	if b == nil {
		return 0
	}
	capacity := b.Size() * c.depth
	return float64(capacity-b.FreeSlots()) / float64(capacity)
}

// SkipCycles replays n idle ticks: only the activity cycle counter moves
// (idle round-robin arbiters hold still), and only on a live node.
func (c *Chassis) SkipCycles(n int64) {
	if !c.Dead {
		c.Act.Cycles += n
	}
}

// usable returns the channels a link arriving on side from may use: none
// on a dead node or across a severed port, else the side's channels still
// in service.
func (c *Chassis) usable(from topology.Direction) uint64 {
	if c.Dead || c.Severed(from) {
		return 0
	}
	return c.sideMask[from] &^ c.Offline
}

// NumInputVCs returns the size of the VC namespace a link addresses.
func (c *Chassis) NumInputVCs(topology.Direction) int { return c.inputVCs }

// InputVCDepth returns the usable depth of input VC vc on side from: 0
// for a channel the link cannot use, 1 under virtual queuing.
func (c *Chassis) InputVCDepth(from topology.Direction, vc int) int {
	i := int(c.sideBase[from]) + vc
	if c.usable(from)&(1<<uint(i)) == 0 {
		return 0
	}
	return c.VCs[i].Capacity()
}

// InputVCClaimable reports whether input VC vc on side from can take a
// new packet.
func (c *Chassis) InputVCClaimable(from topology.Direction, vc int) bool {
	i := int(c.sideBase[from]) + vc
	return c.usable(from)&(1<<uint(i)) != 0 && c.VCs[i].Claimable(from)
}

// ClaimableMask returns the claimable input VCs of side from as a bitmap
// over the side's namespace.
func (c *Chassis) ClaimableMask(from topology.Direction) uint64 {
	return (c.alloc.Claimable(from) & c.usable(from)) >> uint(c.sideBase[from])
}

// ClaimInputVC reserves input VC vc on side from for an inbound packet.
func (c *Chassis) ClaimInputVC(from topology.Direction, vc int) bool {
	if !c.InputVCClaimable(from, vc) {
		return false
	}
	c.VCs[int(c.sideBase[from])+vc].Claim(from)
	return true
}

// ReleaseInputVC returns a claim whose packet will never arrive. Side
// Local names an internal transfer-leg claim.
func (c *Chassis) ReleaseInputVC(from topology.Direction, vc int) {
	if c.Severed(from) {
		// SeverPort already purged unbacked claims on the dead interface;
		// honoring the upstream's withdrawal would double-release.
		return
	}
	c.VCs[int(c.sideBase[from])+vc].ReleaseClaim()
}

// Idle reports whether a tick with empty input pipes would be a pure
// no-op apart from what SkipCycles replays: every channel is dormant (no
// flits buffered, no packet state resident), so sweeping, draining,
// reaping, VA and SA all have nothing to do. Bare upstream claims do not
// block idleness — no tick phase acts on a claim alone — and neither does
// a loopback delivery, which progresses through TryInject. One load: the
// channels keep their dormancy in the busy mask.
func (c *Chassis) Idle() bool { return c.alloc.busy == 0 }

// FastIdle reports whether the rest of the tick may be skipped: the fast
// path is enabled and every channel is dormant, so the remaining phases
// reduce to what SkipCycles replays.
func (c *Chassis) FastIdle() bool { return !c.fullTick && c.Idle() }

// TickFront runs the phases a baseline router's tick opens with and
// reports whether allocation should follow: a dead node runs its drain
// tick instead, and a live one counts the cycle, takes returning credits
// and arrivals, and — unless that leaves it idle — runs the recovery
// scans (without the dead-grant hunt the baselines lack).
func (c *Chassis) TickFront(cycle int64) bool {
	if c.Dead {
		c.tickDead(cycle)
		return false
	}
	c.Act.Cycles++
	c.ReturnCredits()
	c.Arrive(cycle)
	if c.FastIdle() {
		return false
	}
	c.Recover(cycle, false)
	return true
}

// ReturnCredits takes the credits arriving from downstream.
func (c *Chassis) ReturnCredits() {
	for _, d := range topology.CardinalDirections {
		if c.out[d] == nil {
			continue
		}
		for _, vc := range c.out[d].Credit.Read() {
			c.Books[d].ReturnCredit(vc)
		}
	}
}

// Arrive takes the flits arriving this cycle. A flit on a severed side is
// dropped (its link died with it in flight); with EarlyEject a flit for
// the local PE is delivered straight off the input decoder; any other
// queues in the channel its upstream VA granted, ready after the one-cycle
// buffer write plus any double-routing penalty.
func (c *Chassis) Arrive(cycle int64) {
	for _, d := range topology.CardinalDirections {
		if c.in[d] == nil {
			continue
		}
		f := c.in[d].Flit.Read()
		if f == nil {
			continue
		}
		if c.Severed(d) {
			// No credit either: the interface is dead in both directions.
			c.Act.DroppedFlits++
			c.dropFlit(f, cycle, trace.DropInFlight)
			continue
		}
		f.Hops++
		if c.EarlyEject && f.OutPort == topology.Local {
			c.Act.EarlyEjections++
			c.deliver(c.Node, f, cycle)
			continue
		}
		i := int(c.sideBase[d]) + f.VC
		if c.queueMask[f.OutPort]&(1<<uint(i)) == 0 {
			panic(fmt.Sprintf("router %d: guided queuing violation: %v into vc %d", c.Node, f, f.VC))
		}
		f.ReadyAt = cycle + 1 + f.Penalty
		if f.Penalty > 0 {
			// Double routing: this node performs the current-node route
			// computation the faulty upstream RC unit skipped.
			c.Act.RouteComputations++
			f.Penalty = 0
		}
		if f.Rec != nil {
			f.Rec.Visit(c.Node, cycle, trace.Arrived)
		}
		c.VCs[i].PushFrom(f, d)
		c.Act.BufferWrites++
	}
}

// Recover runs the recovery scans — sweep broken packets (and, with
// huntDeadGrants, grants whose downstream channel died), drain doomed
// wormholes, reap orphaned states — unless the network is provably quiet.
func (c *Chassis) Recover(cycle int64, huntDeadGrants bool) {
	if c.fullTick || !c.quiet() {
		c.sweepBroken(huntDeadGrants)
		c.drainDoomed(cycle)
		c.reapOrphans(cycle)
	}
}

// tickDead is a dead node's cycle: arrivals are dropped with their credits
// returned (flow control upstream must not wedge on a node that died with
// traffic in flight), returning credits are discarded, condemned resident
// wormholes drain as drops, and orphaned states retire. The node does no
// allocation and burns no activity.
func (c *Chassis) tickDead(cycle int64) {
	for _, d := range topology.CardinalDirections {
		if in := c.in[d]; in != nil {
			if f := in.Flit.Read(); f != nil {
				c.Act.DroppedFlits++
				c.dropFlit(f, cycle, trace.DropDeadNode)
				if f.VC >= 0 {
					in.Credit.Write(f.VC)
					c.wrote |= 1 << (CreditHalf + d)
				}
			}
		}
		if c.out[d] != nil {
			c.out[d].Credit.Read()
		}
	}
	c.drainDoomed(cycle)
	c.reapOrphans(cycle)
}

// drainDoomed discards the buffered flits of doomed front packets,
// returning their buffer slots so the rest of the network keeps flowing.
func (c *Chassis) drainDoomed(cycle int64) {
	for _, vc := range c.VCs {
		for {
			feeder := vc.Feeder()
			f := vc.DrainDoomed()
			if f == nil {
				break
			}
			c.noteStragglerDrain(vc)
			c.Act.DroppedFlits++
			c.dropFlit(f, cycle, trace.DropInFlight)
			c.freeSlot(vc, feeder)
			if f.Type.IsTail() {
				break
			}
		}
	}
}

// freeSlot returns the buffer slot a flit just vacated in vc to whatever
// feeds the channel: a credit upstream over the feeder link, or back to
// the transfer leg's book.
func (c *Chassis) freeSlot(vc *VC, feeder topology.Direction) {
	if feeder.IsCardinal() && c.in[feeder] != nil {
		c.in[feeder].Credit.Write(vc.Index)
		c.wrote |= 1 << (CreditHalf + feeder)
	}
	if c.xferTo&vc.abit != 0 {
		c.Books[TransferLeg].ReturnCredit(vc.Index)
	}
}

// TryInject offers the next flit of the PE's current packet (see
// Router.TryInject) for every router kind. A dead node takes nothing; a
// self-addressed packet is delivered straight back to the PE; a body or
// tail flit streams into the channel its head started; and a head, once
// the previous packet's tail is in, starts in the lowest channel of the
// policy's Injection rule that is claimable from the PE and has room.
func (c *Chassis) TryInject(f *flit.Flit, cycle int64) bool {
	switch {
	case c.Dead:
		return false
	case c.loopback(f, cycle):
		return true
	case !f.Type.IsHead():
		if c.InjVC < 0 || !c.VCs[c.InjVC].HasRoom() {
			return false
		}
		c.push(f, c.InjVC, cycle)
		return true
	case c.InjVC >= 0:
		return false // the previous packet's tail is not yet accepted
	}
	for m := c.Injection(f); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if vc := c.VCs[i]; vc.Claimable(topology.Local) && vc.HasRoom() {
			vc.Claim(topology.Local)
			c.push(f, i, cycle)
			return true
		}
	}
	return false
}

// loopback delivers a self-addressed packet straight back to the PE — it
// never enters the fabric — and reports whether f belonged to one.
func (c *Chassis) loopback(f *flit.Flit, cycle int64) bool {
	switch {
	case f.Type.IsHead() && f.OutPort == topology.Local:
		if !f.Type.IsTail() {
			c.InjVC = loopbackVC
		}
	case c.InjVC == loopbackVC:
		if f.Type.IsTail() {
			c.InjVC = -1
		}
	default:
		return false
	}
	c.deliver(c.Node, f, cycle)
	return true
}

// push writes the PE's flit f into channel i, ready next cycle. The packet
// owns the channel until its tail is in.
func (c *Chassis) push(f *flit.Flit, i int, cycle int64) {
	f.ReadyAt = cycle + 1
	c.VCs[i].PushFrom(f, topology.Local)
	c.Act.BufferWrites++
	c.InjVC = i
	if f.Type.IsTail() {
		c.InjVC = -1
	}
}

// BeginVA opens a cycle's VC allocation: it clears VAFailed and the
// per-cycle claim cache and returns the requesters, the channels whose
// front head awaits a downstream grant.
func (c *Chassis) BeginVA() uint64 {
	c.VAFailed = 0
	c.claimOK = 0
	return c.alloc.needVA
}

// ChargeVA counts one VA request evaluation for vc's front head, plus a
// look-ahead route computation when the head has no route yet.
func (c *Chassis) ChargeVA(vc *VC) {
	c.Act.VAOps++
	if vc.NextOut() == topology.Invalid {
		c.Act.RouteComputations++
	}
}

// Lookahead is the VA prologue for vc's front head, bound for output out:
// it computes the head's route at the downstream router and returns it
// with avail, the downstream channels both alive and claimable (the
// neighbour's claimable mask is fetched once per output per cycle: nothing
// claims during request building, and the output stage re-checks through
// ClaimInputVC). ok is false when no request follows: the link is
// missing; the downstream router cannot serve the route, so the packet is
// doomed rather than left to clog the network; or, with EarlyEject, the
// head ejects downstream and is granted without a channel.
func (c *Chassis) Lookahead(vc *VC, out topology.Direction) (nextOut topology.Direction, avail uint64, ok bool) {
	nbr, book := c.Neighbors[out], c.Books[out]
	if nbr == nil || book == nil {
		return topology.Invalid, 0, false
	}
	downstream, ok := c.Engine.Topology().Neighbor(c.Node, out)
	if !ok {
		return topology.Invalid, 0, false
	}
	from := out.Opposite()
	nextOut = c.Engine.RouteAt(downstream, from, vc.Front())
	vc.SetNextOut(nextOut)
	if c.EarlyEject && nextOut == topology.Local {
		if nbr.CanServe(from, topology.Local) {
			vc.GrantEject()
		} else {
			vc.Doom()
		}
		return nextOut, 0, false
	}
	if !nbr.CanServe(from, nextOut) {
		vc.Doom()
		return nextOut, 0, false
	}
	if c.claimOK&(1<<uint(out)) == 0 {
		c.claimOK |= 1 << uint(out)
		c.claim[out] = nbr.ClaimableMask(from)
	}
	return nextOut, book.AliveMask() & c.claim[out], true
}

// Request files requester channel id's bid for downstream channel ch
// through book b (a direction, or TransferLeg), with its look-ahead route.
func (c *Chassis) Request(b, ch, id int, nextOut topology.Direction) {
	c.targReq[b][ch] |= 1 << uint(id)
	c.targUsed[b] |= 1 << uint(ch)
	c.vaNext[id] = nextOut
}

// GrantVA runs the VA output stage: for every requested downstream
// channel its arbiter picks one requester, which claims the channel at
// the downstream router (or, on the transfer leg, at this one) and
// enqueues its grant in the book. Losers, and winners whose claim another
// upstream router took earlier this cycle, join VAFailed.
func (c *Chassis) GrantVA() {
	for b := range c.targUsed {
		used := c.targUsed[b]
		if used == 0 {
			continue
		}
		c.targUsed[b] = 0
		for uc := used; uc != 0; uc &= uc - 1 {
			ch := bits.TrailingZeros16(uc)
			reqs := uint64(c.targReq[b][ch])
			c.targReq[b][ch] = 0
			w := c.VAArb[b][ch].GrantMask(reqs)
			c.VAFailed |= reqs &^ (1 << uint(w))
			if !c.claimDownstream(b, ch) {
				c.VAFailed |= 1 << uint(w)
				continue
			}
			c.Books[b].EnqueueGrant(ch, w)
			c.VCs[w].GrantRoute(ch, c.vaNext[w])
			c.Act.VAGrants++
		}
	}
}

// claimDownstream claims channel ch behind book b.
func (c *Chassis) claimDownstream(b, ch int) bool {
	if b == TransferLeg {
		return c.ClaimInputVC(topology.Local, ch)
	}
	nbr := c.Neighbors[b]
	return nbr != nil && nbr.ClaimInputVC(topology.Direction(b).Opposite(), ch)
}

// creditOK reports whether channel i's front flit, leaving through leg,
// may stream: it ejects downstream, or the target channel has a free slot
// and i holds its oldest grant.
func (c *Chassis) creditOK(vc *VC, i, leg int) bool {
	if vc.EjectNext() {
		return true
	}
	book, outVC := c.Books[leg], vc.OutVC()
	return book.Credits(outVC) > 0 && book.MayStream(outVC, i)
}

// leg returns the crossbar output a packet in channel i routed to out
// takes: the output port, or TransferLeg.
func (c *Chassis) leg(i int, out topology.Direction) int {
	if c.viaTransfer(i, out) {
		return TransferLeg
	}
	return int(out)
}

// SwitchRequests returns the channels among cand whose front flit may bid
// for the switch this cycle — ready, and clear to stream (skipDoomed also
// leaves doomed fronts out) — both as one mask and split by the crossbar
// output they bid for (see leg). It counts a credit stall for each ready
// channel without credit, and tallies Figure 3's contention: a crossbar
// input requests an output when it holds such a flit for it, and the
// request is contended when another input wants the same output this
// cycle.
func (c *Chassis) SwitchRequests(cand uint64, cycle int64, skipDoomed bool) (ready uint64, byLeg [TransferLeg + 1]uint64) {
	var desire [TransferLeg + 1]uint8
	for m := cand; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := c.VCs[id]
		if !vc.FrontReady(cycle) || skipDoomed && vc.Doomed() {
			continue
		}
		leg := c.leg(id, vc.OutPort())
		if !c.creditOK(vc, id, leg) {
			c.Act.CreditStalls++
			continue
		}
		ready |= 1 << uint(id)
		byLeg[leg] |= 1 << uint(id)
		desire[leg] |= c.inputBit[id]
	}
	for o, inputs := range desire {
		if n := bits.OnesCount8(inputs); n > 0 {
			c.countContention(topology.Direction(o), n)
		}
	}
	return ready, byLeg
}

// countContention tallies n requests for output out, all of them contended
// when n > 1; ejection and transfer outputs are not Figure 3 ports.
func (c *Chassis) countContention(out topology.Direction, n int) {
	failed := 0
	if n > 1 {
		failed = n
	}
	switch {
	case out.IsX():
		c.Cont.RowRequests += int64(n)
		c.Cont.RowFailures += int64(failed)
	case out.IsY():
		c.Cont.ColRequests += int64(n)
		c.Cont.ColFailures += int64(failed)
	}
}

// Nominee is one input group's pick in a separable switch allocator: its
// channel (-1 for none) and the crossbar output it bids for (see leg).
type Nominee struct {
	ID, Leg int
}

// Nominate runs a separable switch allocator's input stage: crossbar input
// g nominates one of its ready channels through arbs[g]. Heads whose VA
// failed this cycle bid speculatively in parallel: they are charged as
// arbitration work but rank below any real request and never displace one
// (Peh-Dally speculation).
func (c *Chassis) Nominate(ready uint64, arbs []arbiter.RoundRobin, nom []Nominee) {
	size := c.group
	mask := uint64(1)<<uint(size) - 1
	for g := range arbs {
		arb := &arbs[g]
		shift := uint(g * size)
		req := ready >> shift & mask
		spec := c.VAFailed >> shift & mask &^ req
		c.Act.SAOps += int64(bits.OnesCount64(req) + bits.OnesCount64(spec))
		nom[g] = Nominee{ID: -1, Leg: -1}
		if req != 0 {
			id := g*size + arb.GrantMask(req)
			nom[g] = Nominee{ID: id, Leg: c.leg(id, c.VCs[id].OutPort())}
		}
	}
}

// GrantOutputs runs a separable switch allocator's output stage: arbs[o]
// picks one of the nominees bidding for crossbar output legs[o] (nominee g
// is request line g), and each winner traverses and, when it leaves on a
// link, is driven.
func (c *Chassis) GrantOutputs(nom []Nominee, arbs []arbiter.RoundRobin, legs []int, cycle int64) {
	var reqs [TransferLeg + 1]uint64
	for g, n := range nom {
		if n.Leg >= 0 {
			reqs[n.Leg] |= 1 << uint(g)
		}
	}
	for o, leg := range legs {
		w := arbs[o].GrantMask(reqs[leg])
		if w < 0 {
			continue
		}
		c.Act.SAGrants++
		if f, out := c.Traverse(nom[w].ID, cycle); f != nil {
			c.Drive(f, out)
		}
	}
}

// DirectionLegs names the crossbar outputs North, East, South, West and
// Local as GrantOutputs legs, for allocators with one output arbiter per
// port in direction order.
var DirectionLegs = [...]int{int(topology.North), int(topology.East), int(topology.South), int(topology.West), int(topology.Local)}

// Traverse moves channel i's front flit, a switch winner, through the
// crossbar and returns it with its output port when it leaves on a link:
// addressed to its next hop and charged to the credit book, but not yet
// driven, so the policy can annotate it before calling Drive. A flit for
// the local PE goes through the crossbar-to-PE interface latch (one extra
// cycle, which early ejection saves), and one on the transfer leg lands in
// this router's own downstream channel, route state intact; both return
// nil.
func (c *Chassis) Traverse(i int, cycle int64) (*flit.Flit, topology.Direction) {
	vc := c.VCs[i]
	// Capture the packet's routing state before Pop: popping a tail flit
	// retires the packet and shifts the channel to the next one.
	out, outVC, nextOut, ejectNext, feeder := vc.OutPort(), vc.OutVC(), vc.NextOut(), vc.EjectNext(), vc.Feeder()
	transfer := c.viaTransfer(i, out)
	vc.MarkStreamed()
	f := vc.Pop()
	c.Act.BufferReads++
	c.Act.CrossbarTraversals++
	c.freeSlot(vc, feeder)
	switch {
	case transfer:
		c.Books[TransferLeg].Send(outVC, f.Type.IsTail())
		f.ReadyAt = cycle + 1
		c.VCs[outVC].PushFrom(f, topology.Local)
		c.Act.BufferWrites++
		return nil, out
	case out == topology.Local:
		c.Act.Ejections++
		c.deliver(c.Node, f, cycle+1)
		return nil, out
	}
	f.OutPort = nextOut
	if ejectNext {
		f.VC = -1
	} else {
		f.VC = outVC
		c.Books[out].Send(outVC, f.Type.IsTail())
	}
	return f, out
}

// CrossesDateline reports whether a hop from this node through out crosses
// its dimension's torus dateline.
func (c *Chassis) CrossesDateline(out topology.Direction) bool { return c.dateline&(1<<out) != 0 }

// Drive puts a flit returned by Traverse onto output link out, recording a
// torus dateline crossing in the flit.
func (c *Chassis) Drive(f *flit.Flit, out topology.Direction) {
	if c.CrossesDateline(out) {
		if out.IsX() {
			f.CrossedX = true
		} else {
			f.CrossedY = true
		}
	}
	f.ReadyAt = 0
	c.Act.LinkFlits++
	c.Act.LinkFlitsByDir[out]++
	c.out[out].Flit.Write(f)
	c.wrote |= 1 << out
}

// Alloc exposes the router's allocation bitmaps; the VA/SA stages read
// them instead of re-evaluating per-channel predicates each cycle.
func (c *Chassis) Alloc() *AllocState { return &c.alloc }

// AuditAlloc recomputes the allocation bitmaps from the channels and
// reports an error when the incrementally maintained copies disagree: a
// channel mutation skipped syncAlloc or syncClaim. It also checks the
// neighbour handshake: every cardinal output's credit book must hold the
// depths the downstream router reports. Depths change only when a fault
// strikes, and every strike re-propagates, so a mismatch at a cycle
// boundary is a missed refresh. It allocates nothing unless it fails.
func (c *Chassis) AuditAlloc() error {
	for _, d := range topology.CardinalDirections {
		b := c.Books[d]
		if b == nil {
			continue
		}
		for vc := range b.Size() {
			if want := c.Neighbors[d].InputVCDepth(d.Opposite(), vc); int(b.depths[vc]) != want {
				return fmt.Errorf("router %d: output %v books downstream vc %d at depth %d, the neighbour reports %d", c.Node, d, vc, b.depths[vc], want)
			}
		}
	}
	var want AllocState
	for i, vc := range c.VCs {
		bit := uint64(1) << uint(i)
		if !vc.Dormant() {
			want.busy |= bit
		}
		if vc.NeedsVA() {
			if !vc.Doomed() {
				want.needVA |= bit
			}
		} else if vc.frontAligned() {
			want.saReady |= bit
		}
		if vc.claims == 0 {
			want.free |= bit
		}
		if vc.claims < MaxPacketsPerChannel {
			want.notFull |= bit
		}
		if vc.claims > 0 {
			want.feeder[vc.claimFeeder] |= bit
		}
	}
	if want != c.alloc {
		return fmt.Errorf("router %d: allocation masks %+v disagree with their recomputation %+v", c.Node, c.alloc, want)
	}
	return nil
}
