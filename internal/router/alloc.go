package router

import (
	"fmt"
	"math/bits"

	"github.com/rocosim/roco/internal/topology"
)

// AllocState holds a router's per-channel bitmaps: one bit per channel,
// in the same flat grantee-index order as Chassis.VCs (and therefore the
// output books). The masks are exact incremental mirrors of per-VC
// predicates — NeedsVA, the routed half of SwitchReady, Claimable, and
// !Dormant — maintained by the channel mutators themselves: every queue
// and packet-state mutation ends in syncAlloc, routing-state mutations
// (GrantRoute, GrantEject, Doom) call it too, and claim mutations call
// syncClaim. A router's per-cycle request building then starts from a bit
// test instead of a predicate call per channel, and its dormancy is one
// word compare.
//
// What the masks deliberately do NOT capture is anything that changes
// without a VC mutator running: flit ReadyAt stamps (checked live through
// VC.FrontReady), downstream credits, and look-ahead routes. Those stay
// per-cycle work; the masks only prune which channels that work runs for.
type AllocState struct {
	// busy: the channel holds a buffered flit or resident packet state
	// (!Dormant). The router is idle exactly when busy is zero, which is
	// what the gated kernel's sleep decision reads.
	busy uint64
	// needVA: the front flit is a head still awaiting a downstream grant
	// and the packet is not doomed — exactly the channels the VA request
	// loop admits (NeedsVA() && !Doomed()).
	needVA uint64
	// saReady: the front flit belongs to the front packet and is routed
	// (body/tail, granted head, or ejecting head) — SwitchReady minus its
	// per-cycle ReadyAt check. Doomed packets stay in the mask: the SA
	// loops that exclude them (PDR) test Doomed explicitly, as before.
	saReady uint64
	// free / notFull / feeder mirror Claimable: a channel is claimable
	// from side d iff it has no claims at all, or it has a free packet
	// slot and d is already its feeder link.
	free    uint64
	notFull uint64
	feeder  [int(topology.Invalid) + 1]uint64
}

// SAReady returns the switch-request mask: channels whose front flit is
// routed and aligned with the front packet. The caller still gates each
// bit on VC.FrontReady (the flit's ReadyAt is per-cycle state).
func (a *AllocState) SAReady() uint64 { return a.saReady }

// Claimable returns the mask of channels a new packet arriving over link
// from may claim — the bitmap equivalent of VC.Claimable(from) across the
// router's channels.
func (a *AllocState) Claimable(from topology.Direction) uint64 {
	return a.free | (a.notFull & a.feeder[from])
}

// bindAlloc wires the channel into the router's allocation bitmaps as bit
// idx and seeds its bits from current state. Called by InitChassis, which
// owns the canonical flat channel order. A channel belongs to one router:
// binding it twice would leave the first router's masks stale.
func (v *VC) bindAlloc(a *AllocState, idx int) {
	if idx >= 64 {
		panic(fmt.Sprintf("router: channel %d beyond the 64-bit allocation mask", idx))
	}
	if v.alloc != nil {
		panic(fmt.Sprintf("router: channel %d already bound to a router", v.Index))
	}
	v.alloc = a
	v.abit = 1 << uint(idx)
	v.syncAlloc()
	v.syncClaim()
}

// granteeIndex recovers the channel's flat grantee index from its
// allocation bit, or -1 for a channel not bound to a router (bare
// unit-test VCs).
func (v *VC) granteeIndex() int {
	if v.abit == 0 {
		return -1
	}
	return bits.TrailingZeros64(v.abit)
}

// syncAlloc recomputes the channel's busy, needVA and saReady bits after
// a queue, states, or front-packet routing mutation. No-op for channels
// not bound to a router (bare unit-test VCs).
func (v *VC) syncAlloc() {
	a := v.alloc
	if a == nil {
		return
	}
	a.busy &^= v.abit
	if !v.Dormant() {
		a.busy |= v.abit
	}
	a.needVA &^= v.abit
	a.saReady &^= v.abit
	if len(v.queue) == 0 || len(v.states) == 0 || v.queue[0].PacketID != v.states[0].packetID {
		return
	}
	s := &v.states[0]
	if v.queue[0].Type.IsHead() && s.outVC < 0 && s.flags&psEject == 0 {
		if s.flags&psDoomed == 0 {
			a.needVA |= v.abit
		}
		return
	}
	a.saReady |= v.abit
}

// syncClaim recomputes the channel's claim-admission bits after a claim
// count or feeder change.
func (v *VC) syncClaim() {
	a := v.alloc
	if a == nil {
		return
	}
	a.free &^= v.abit
	a.notFull &^= v.abit
	for d := range a.feeder {
		a.feeder[d] &^= v.abit
	}
	if v.claims == 0 {
		a.free |= v.abit
		a.notFull |= v.abit
		return
	}
	if v.claims < MaxPacketsPerChannel {
		a.notFull |= v.abit
	}
	a.feeder[v.claimFeeder] |= v.abit
}

// FrontReady reports whether the front flit's ReadyAt has passed. It is
// the per-cycle half of SwitchReady; callers must know the queue is
// non-empty (an asserted saReady or needVA bit guarantees it).
func (v *VC) FrontReady(cycle int64) bool { return v.queue[0].ReadyAt <= cycle }
