package router

import (
	"math/bits"

	"github.com/rocosim/roco/internal/topology"
)

// WaitEdge is one observed wait-for dependency: a channel holding a
// blocked packet waiting on a resource at a (usually downstream) router.
type WaitEdge struct {
	// FromNode/FromVC hold the blocked packet's front flit.
	FromNode, FromVC int
	// ToNode/ToVC is a channel the packet is waiting to acquire or to
	// drain (one of possibly several alternatives).
	ToNode, ToVC int
}

// WaitGraphSource lets a router expose its blocked-channel dependencies
// for deadlock analysis. Every router implements it through the embedded
// Chassis; Router embeds it.
type WaitGraphSource interface {
	// WaitEdges returns, for every channel whose front packet is blocked,
	// the set of channels it is waiting on. Both ends name a channel by
	// its router and its index in that router's channel list.
	WaitEdges() []WaitEdge
}

// WaitEdges reports the wait-for dependencies of the router's blocked
// front packets for the network's deadlock detector. A head awaiting VC
// allocation waits on every candidate the policy's rule (Candidates)
// names, or for the transfer leg every channel behind it, when none of
// them is both alive and claimable. A routed packet without credit waits
// on its granted channel. Doomed packets drain and wait on nothing, and
// neither do packets ejecting here.
func (c *Chassis) WaitEdges() []WaitEdge {
	var edges []WaitEdge
	for i, vc := range c.VCs {
		if vc.Len() == 0 || vc.Doomed() {
			continue
		}
		out := vc.OutPort()
		if !out.IsCardinal() && !c.viaTransfer(i, out) {
			continue
		}
		leg := c.leg(i, out)
		// The waited-on channels sit at the router behind leg and are
		// claimed from side from there. That router is of this kind, so
		// side from's namespace starts at the same channel index.
		to, from := c.Node, topology.Local
		if leg != TransferLeg {
			var ok bool
			if to, ok = c.Engine.Topology().Neighbor(c.Node, out); !ok || c.Neighbors[out] == nil {
				continue
			}
			from = out.Opposite()
		}
		base := int(c.sideBase[from])
		if vc.NeedsVA() {
			cands, claimable := c.xferTo, c.ClaimableMask(topology.Local)
			if leg != TransferLeg {
				cands = c.Candidates(vc.Front(), out, vc.NextOut())
				claimable = c.Neighbors[out].ClaimableMask(from)
			}
			if cands&c.Books[leg].AliveMask()&claimable != 0 {
				continue
			}
			for m := cands; m != 0; m &= m - 1 {
				edges = append(edges, WaitEdge{FromNode: c.Node, FromVC: i, ToNode: to, ToVC: base + bits.TrailingZeros64(m)})
			}
		} else if vc.OutVC() >= 0 && !vc.EjectNext() && !c.creditOK(vc, i, leg) {
			edges = append(edges, WaitEdge{FromNode: c.Node, FromVC: i, ToNode: to, ToVC: base + vc.OutVC()})
		}
	}
	return edges
}
