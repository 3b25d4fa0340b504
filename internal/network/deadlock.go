package network

import (
	"fmt"
	"strings"

	"github.com/rocosim/roco/internal/router"
)

// WaitEdge re-exports the wait-for dependency type routers report
// (router.WaitEdge).
type WaitEdge = router.WaitEdge

// DeadlockReport describes a wait-for cycle found in a quiesced network.
type DeadlockReport struct {
	Cycle []WaitEdge
}

// String renders the cycle.
func (r DeadlockReport) String() string {
	if len(r.Cycle) == 0 {
		return "no deadlock"
	}
	var sb strings.Builder
	sb.WriteString("wait cycle:")
	for _, e := range r.Cycle {
		fmt.Fprintf(&sb, " (n%d,vc%d)->(n%d,vc%d)", e.FromNode, e.FromVC, e.ToNode, e.ToVC)
	}
	return sb.String()
}

// DetectDeadlock builds the wait-for graph across all routers and searches
// for a cycle. A packet waiting on several alternative channels (a VA
// request with several candidates) blocks only if ALL alternatives are
// blocked, so the routers report a head's edges only while none of its
// candidates is available.
//
// The search starts from the waiting channels in the order the routers
// report them (ascending node, then ascending channel), so one wait graph
// always yields the same report. Returns ok=false when no cycle exists
// among the reported dependencies.
func (n *Network) DetectDeadlock() (DeadlockReport, bool) {
	type nodeKey struct{ node, vc int }
	adj := map[nodeKey][]WaitEdge{}
	var waiting []nodeKey
	for _, r := range n.routers {
		for _, e := range r.WaitEdges() {
			k := nodeKey{e.FromNode, e.FromVC}
			if adj[k] == nil {
				waiting = append(waiting, k)
			}
			adj[k] = append(adj[k], e)
		}
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[nodeKey]int{}
	parentEdge := map[nodeKey]WaitEdge{}

	var cycle []WaitEdge
	var dfs func(k nodeKey) bool
	dfs = func(k nodeKey) bool {
		color[k] = gray
		for _, e := range adj[k] {
			next := nodeKey{e.ToNode, e.ToVC}
			switch color[next] {
			case white:
				parentEdge[next] = e
				if dfs(next) {
					return true
				}
			case gray:
				// Found a cycle: unwind from k back to next.
				cycle = []WaitEdge{e}
				for at := k; at != next; {
					pe := parentEdge[at]
					cycle = append([]WaitEdge{pe}, cycle...)
					at = nodeKey{pe.FromNode, pe.FromVC}
				}
				return true
			}
		}
		color[k] = black
		return false
	}
	for _, k := range waiting {
		if color[k] == white && dfs(k) {
			return DeadlockReport{Cycle: cycle}, true
		}
	}
	return DeadlockReport{}, false
}
