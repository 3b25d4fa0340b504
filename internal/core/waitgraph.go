package core

import (
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// WaitEdges exposes the router's blocked-channel dependencies for the
// network's deadlock detector: for every channel whose front packet cannot
// currently make progress, the downstream channels it is waiting to
// acquire (VA-blocked heads) or to drain (credit-blocked flits).
func (r *Router) WaitEdges() []router.WaitEdge {
	var out []router.WaitEdge
	topo := r.Engine.Topology()
	for id, vc := range r.VCs {
		if vc.Len() == 0 || vc.Doomed() {
			continue
		}
		if vc.NeedsVA() {
			head := vc.Front()
			outPort := vc.OutPort()
			if outPort == topology.Invalid || outPort == topology.Local {
				continue
			}
			down, ok := topo.Neighbor(r.Node, outPort)
			if !ok {
				continue
			}
			nbr := r.Neighbors[outPort]
			from := outPort.Opposite()
			nextOut := vc.NextOut()
			if nextOut == topology.Invalid || nextOut == topology.Local {
				continue
			}
			turn := routing.TurnOf(from, nextOut)
			blockedAll := true
			var edges []router.WaitEdge
			for cand := range r.cfg.Class {
				if !r.cfg.Admits(cand, turn, head.Mode, nextOut) {
					continue
				}
				if nbr != nil && nbr.InputVCClaimable(from, cand) {
					blockedAll = false
					break
				}
				edges = append(edges, router.WaitEdge{FromNode: r.Node, FromVC: id, ToNode: down, ToVC: cand})
			}
			if blockedAll {
				out = append(out, edges...)
			}
			continue
		}
		// Routed packet blocked on credits for its granted channel.
		if vc.OutVC() >= 0 && !vc.EjectNext() && !r.CreditOK(vc, id) {
			if down, ok := topo.Neighbor(r.Node, vc.OutPort()); ok {
				out = append(out, router.WaitEdge{FromNode: r.Node, FromVC: id, ToNode: down, ToVC: vc.OutVC()})
			}
		}
	}
	return out
}
