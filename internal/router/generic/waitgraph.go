package generic

import (
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/topology"
)

// WaitEdges exposes the router's blocked-channel dependencies for the
// network's deadlock detector.
func (r *Router) WaitEdges() []router.WaitEdge {
	var out []router.WaitEdge
	topo := r.Engine.Topology()
	for fromVC, vc := range r.VCs {
		if vc.Len() == 0 || vc.Doomed() {
			continue
		}
		if vc.NeedsVA() {
			head := vc.Front()
			outPort := vc.OutPort()
			if !outPort.IsCardinal() {
				continue
			}
			down, ok := topo.Neighbor(r.Node, outPort)
			if !ok {
				continue
			}
			nbr := r.Neighbors[outPort]
			blockedAll := true
			var edges []router.WaitEdge
			for _, cand := range r.candidateVCs(head, outPort) {
				if nbr != nil && nbr.InputVCClaimable(outPort.Opposite(), cand) {
					blockedAll = false
					break
				}
				edges = append(edges, router.WaitEdge{FromNode: r.Node, FromVC: fromVC, ToNode: down, ToVC: cand})
			}
			if blockedAll {
				out = append(out, edges...)
			}
			continue
		}
		if vc.OutVC() >= 0 && !vc.EjectNext() && vc.OutPort() != topology.Local && !r.CreditOK(vc, fromVC) {
			if down, ok := topo.Neighbor(r.Node, vc.OutPort()); ok {
				out = append(out, router.WaitEdge{FromNode: r.Node, FromVC: fromVC, ToNode: down, ToVC: vc.OutVC()})
			}
		}
	}
	return out
}
