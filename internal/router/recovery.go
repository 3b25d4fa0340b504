package router

import (
	"fmt"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// BrokenSet is the network-wide registry of packets that can no longer be
// delivered whole: at least one of their flits was dropped somewhere (a
// live fault condemned a buffer, a dead node drained an arrival, a doomed
// wormhole fragment was discarded). Routers sweep the set every Tick and
// doom their own resident fragments of broken packets, so a break anywhere
// propagates along the whole wormhole within a cycle and the stranded
// flits drain instead of wedging the network.
type BrokenSet struct {
	ids map[uint64]int64 // packet ID -> cycle first broken
	// faulty latches permanently once any fault is installed anywhere in
	// the network; together with an empty registry it proves the recovery
	// scans (broken-packet sweep, doomed drains, orphan reaping) have
	// nothing to do.
	faulty bool
}

// NewBrokenSet returns an empty registry.
func NewBrokenSet() *BrokenSet {
	return &BrokenSet{ids: make(map[uint64]int64)}
}

// Add registers a packet as broken (idempotent; the first cycle wins).
func (b *BrokenSet) Add(id uint64, cycle int64) {
	if _, ok := b.ids[id]; !ok {
		b.ids[id] = cycle
	}
}

// Contains reports whether the packet has lost a flit.
func (b *BrokenSet) Contains(id uint64) bool {
	_, ok := b.ids[id]
	return ok
}

// Len returns the number of broken packets.
func (b *BrokenSet) Len() int { return len(b.ids) }

// MarkFaulty latches that a fault was installed somewhere in the network
// (permanently — faults never heal in this simulator).
func (b *BrokenSet) MarkFaulty() { b.faulty = true }

// Quiet reports that no fault was ever installed and no packet ever broke,
// so no router can hold doomed, dead-granted, or orphaned state.
func (b *BrokenSet) Quiet() bool { return !b.faulty && len(b.ids) == 0 }

// StuckFlit describes one packet stalled in a router buffer; the livelock
// watchdog collects them for its diagnostic report.
type StuckFlit struct {
	// Node and VC locate the buffer.
	Node, VC int
	// PacketID, Src, Dst and Hops identify the stalled packet's journey.
	PacketID uint64
	Src, Dst int
	Hops     int
	// StallAge is how many cycles the front flit has been eligible but
	// unable to move.
	StallAge int64
	// Doomed reports that fault handling already marked the packet for
	// discard (it is draining, not wedged).
	Doomed bool
}

// StallSource enumerates a router's stalled buffered packets for the
// livelock/starvation watchdog. Every router implements it through the
// embedded Chassis; Router embeds it.
type StallSource interface {
	StallScan(cycle int64) []StuckFlit
}

// orphanAge is how many cycles a doomed, broken front packet must sit with
// no buffered flits before recovery force-retires its state. Flits of a
// packet stop being forwarded anywhere the cycle after it enters the
// broken set, so on 1-cycle links the last straggler arrives within two
// cycles; four gives margin while keeping recovery prompt. Multi-cycle
// die-to-die links stretch the straggler horizon — the engine's
// MaxLinkDelay raises the effective age (a serialized boundary link spaces
// a broken packet's stragglers up to that far apart, at the crossing and
// at every hop downstream of it), and every drained straggler restarts the
// clock (noteStragglerDrain), so a state is only reaped once no flit of
// its packet can still be in transit. Reaping earlier would let a
// straggler land in an idle — or worse, a reclaimed — channel.
const orphanAge = 4

// isBroken reports whether the packet is registered as broken.
func (c *Chassis) isBroken(id uint64) bool { return c.broken.Contains(id) }

// NoteFault latches the shared registry's faulty flag; every fault
// reaction (ApplyFault, Kill, SeverPort) calls it, which arms the
// recovery scans network-wide.
func (c *Chassis) NoteFault() { c.broken.MarkFaulty() }

// quiet reports that the recovery scans can be skipped this tick: no fault
// was ever installed and no packet ever broke, so sweeping, the doomed
// drain and reaping are all provably no-ops. Every path that dooms or
// condemns a channel first either breaks a packet or installs a fault
// (CanServe only denies service on a faulted node), so a quiet network
// cannot hold recovery work.
func (c *Chassis) quiet() bool { return c.broken.Quiet() }

// SeverPort cuts the router's port d permanently (a die-to-die interface
// fault). Resident front packets already routed through d are doomed on
// the spot; the next recovery sweep withdraws their grants and claims, and
// the doomed drains discard their flits — the same machinery a node death
// uses. The router's own service checks (CanServe, depths, claims,
// arrivals) consult Severed; the network re-propagates the neighbor
// handshake after severing both endpoints.
func (c *Chassis) SeverPort(d topology.Direction) {
	if !d.IsCardinal() {
		panic(fmt.Sprintf("router: cannot sever non-cardinal port %v", d))
	}
	c.NoteFault()
	c.severed |= 1 << uint(d)
	for _, vc := range c.VCs {
		if vc.OutPort() == d {
			vc.Doom()
		}
		// Claims fed over the severed link that no admitted packet backs
		// can never be fulfilled: their heads were dropped at the dead
		// interface or will never be sent. Release them now, or the latched
		// feeder keeps the channel unclaimable forever. The upstream's own
		// never-streamed grant withdrawal is suppressed by the Severed
		// guard in ReleaseInputVC, so the release happens exactly once.
		vc.PurgeClaims(d)
	}
}

// Severed reports whether port d was cut by a D2D interface fault.
// Non-cardinal directions (Local ejection, Invalid probes) are never
// severed.
func (c *Chassis) Severed(d topology.Direction) bool {
	return d.IsCardinal() && c.severed&(1<<uint(d)) != 0
}

// dropFlit reports one discarded flit, with its cause, to the trace and
// the network's drop sink (which registers the packet as broken and keeps
// the conservation ledger).
func (c *Chassis) dropFlit(f *flit.Flit, cycle int64, reason trace.DropReason) {
	if f.Rec != nil && f.Type.IsHead() {
		f.Rec.Drop(c.Node, cycle, reason)
	}
	c.drop(c.Node, f, cycle, reason)
}

// BufferedFlits counts the flits buffered across all channels.
func (c *Chassis) BufferedFlits() int {
	n := 0
	for _, vc := range c.VCs {
		n += vc.Len()
	}
	return n
}

// VCOccupancy adds each channel's buffered flit count into per, bucketed
// by the channel's path-set class, and returns the total added. Channels
// whose router never assigns a class (the baselines) all land in the
// zero-value bucket (ContinueX). Read-only; the telemetry collector
// samples it at epoch boundaries.
func (c *Chassis) VCOccupancy(per *[routing.NumClasses]int32) int {
	total := 0
	for _, vc := range c.VCs {
		n := vc.Len()
		if n == 0 {
			continue
		}
		per[vc.Class] += int32(n)
		total += n
	}
	return total
}

// grantRef locates the bookkeeping behind channel i's front-packet VA
// grant: the credit book holding the grant queue, and the side of the
// claim at the router holding it — the neighbour across that side, or
// this router itself for a transfer-leg claim (side Local). ok is false
// when the front packet holds no grant through a book.
func (c *Chassis) grantRef(i int) (book *OutVCBook, side topology.Direction, ok bool) {
	out := c.VCs[i].OutPort()
	if b := c.leg(i, out); b == TransferLeg {
		return c.Books[b], topology.Local, true
	}
	if !out.IsCardinal() {
		return nil, topology.Invalid, false
	}
	return c.Books[out], out.Opposite(), true
}

// releaseClaim withdraws a never-streamed grant's claim on channel vc
// across side.
func (c *Chassis) releaseClaim(side topology.Direction, vc int) {
	if side == topology.Local {
		c.ReleaseInputVC(side, vc)
	} else if nbr := c.Neighbors[side.Opposite()]; nbr != nil {
		nbr.ReleaseInputVC(side, vc)
	}
}

// sweepBroken dooms resident front packets that can no longer complete and
// withdraws their outstanding VA grants. Two triggers: the packet is in
// the broken set (it lost a flit elsewhere), or — when huntDeadGrants is
// set — its granted downstream channel died under it (a runtime fault
// zeroed the channel's depth after the grant). Hunting dead grants is the
// RoCo router's fault-handshake hardware reacting to the re-propagated
// credit state; the baselines lack the mechanism, so a packet granted into
// a node that dies before it streams wedges its channel (and every channel
// queued behind it) until the watchdog reports it.
func (c *Chassis) sweepBroken(huntDeadGrants bool) {
	for i, vc := range c.VCs {
		st, ok := vc.FrontState()
		if !ok {
			continue
		}
		if !st.Doomed {
			broke := c.isBroken(st.PacketID)
			deadGrant := false
			if !broke && huntDeadGrants && st.OutVC >= 0 && !st.EjectNext {
				if book, _, refOK := c.grantRef(i); refOK && book != nil && !book.Alive(st.OutVC) {
					deadGrant = true
				}
			}
			if !broke && !deadGrant {
				continue
			}
			vc.Doom()
			st.Doomed = true
		}
		// Withdraw the doomed front packet's grant exactly once so the next
		// grantee of the downstream channel can stream; release the
		// downstream claim only if nothing of the packet ever streamed
		// (otherwise the downstream fragment retires the claim itself).
		if st.OutVC >= 0 && !st.EjectNext && !st.Cancelled {
			if book, side, refOK := c.grantRef(i); refOK {
				if book != nil {
					book.CancelGrant(st.OutVC, i)
				}
				if !st.Streamed {
					c.releaseClaim(side, st.OutVC)
				}
			}
			vc.CancelFrontGrant()
		}
	}
}

// reapOrphans force-retires doomed front packet states whose remaining
// flits were dropped elsewhere and can never arrive: the packet is broken,
// none of its flits are buffered here or in transit on the feeding link,
// and the situation has persisted past the in-flight horizon. Without the
// reap, the fragment state would hold its channel (and the packets queued
// behind it) forever.
func (c *Chassis) reapOrphans(cycle int64) {
	for i, vc := range c.VCs {
		st, ok := vc.FrontState()
		if !ok || !st.Doomed || !c.isBroken(st.PacketID) || vc.FrontPacketBuffered() ||
			c.feederBusy(vc.Feeder(), st.PacketID) {
			c.emptySince[i] = -1
			continue
		}
		if c.emptySince[i] < 0 {
			c.emptySince[i] = cycle
			continue
		}
		if cycle-c.emptySince[i] < c.reapAge {
			continue
		}
		vc.AbortFront()
		c.emptySince[i] = -1
		if c.InjVC == i {
			c.InjVC = -1
		}
	}
}

// feederBusy reports whether a flit of packet pkt is still in transit
// toward the router on side d. The orphan clock holds while it is: the
// link FIFO interleaves packets, so on a serialized die-to-die pipe a
// straggler of the doomed packet can lawfully land many cycles after its
// predecessor, queued behind other packets' flits. The probe is
// per-packet, not per-link: a merely busy link (saturated steady-state
// traffic) must not starve the reap, or the doomed state holds its channel
// forever and wedges everything queued behind it. Once the pipe carries
// nothing of the packet, no straggler can ever arrive (upstream fragments
// of a broken packet drain instead of forwarding), and the clock runs.
func (c *Chassis) feederBusy(d topology.Direction, pkt uint64) bool {
	return d.IsCardinal() && c.in[d] != nil && c.in[d].Flit.Carries(pkt)
}

// noteStragglerDrain restarts vc's orphan clock: a flit of its doomed
// front packet just drained, so more may still be in flight behind it.
// Without the reset, stragglers trickling over a serialized die-to-die
// link — each drained the very cycle it lands, leaving the channel
// unbuffered at every reap scan — would never hold the reap off.
func (c *Chassis) noteStragglerDrain(vc *VC) {
	if i := vc.granteeIndex(); i >= 0 && i < len(c.emptySince) {
		c.emptySince[i] = -1
	}
}

// StallScan reports every buffered front packet and how long its front
// flit has been eligible to move, for the watchdog's diagnostic.
func (c *Chassis) StallScan(cycle int64) []StuckFlit {
	var out []StuckFlit
	for i, vc := range c.VCs {
		f := vc.Front()
		if f == nil {
			continue
		}
		age := cycle - f.ReadyAt
		if age < 0 {
			age = 0
		}
		out = append(out, StuckFlit{
			Node:     c.Node,
			VC:       i,
			PacketID: f.PacketID,
			Src:      f.Src,
			Dst:      f.Dst,
			Hops:     f.Hops,
			StallAge: age,
			Doomed:   vc.Doomed(),
		})
	}
	return out
}
