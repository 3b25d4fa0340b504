package router

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// RouteEngine computes look-ahead routes: the output port a flit will
// request at the router it is about to be sent to. All three router models
// share it — the paper's generic router computes the route in its first
// pipeline stage, which is timing-equivalent to look-ahead in this
// simulator's 2-cycle hop model; RoCo and the Path-Sensitive router exploit
// the look-ahead result for guided queuing and early ejection.
type RouteEngine struct {
	topo topology.Topology
	alg  routing.Algorithm
	// routerAt resolves a node ID to its router, giving the engine access
	// to the neighbor handshake state (fault capability and congestion)
	// that adaptive routing consults.
	routerAt func(id int) Router
	// arena, when enabled, slab-allocates the channels of every router
	// built against this engine (the gated kernel's memory diet). The
	// engine carries it because it is the one object the network hands
	// every router builder before construction.
	arena *VCArena
}

// NewRouteEngine builds an engine over the given topology and algorithm.
// routerAt may be nil until the network finishes wiring; adaptive decisions
// then fall back to dimension order.
func NewRouteEngine(topo topology.Topology, alg routing.Algorithm, routerAt func(id int) Router) *RouteEngine {
	return &RouteEngine{topo: topo, alg: alg, routerAt: routerAt}
}

// EnableVCArena makes NewVC slab-allocate lazy channels; the network
// enables it before running the router builders unless the reference
// kernel is selected.
func (e *RouteEngine) EnableVCArena() { e.arena = &VCArena{} }

// NewVC builds one virtual channel for a router under construction:
// an eager standalone channel normally, a lazy slab-resident one when
// the arena is enabled. Routers must allocate their channels through
// this so the kernel's layout choice reaches every router kind.
func (e *RouteEngine) NewVC(index, depth int) *VC {
	if e.arena == nil {
		return NewVC(index, depth)
	}
	return e.arena.NewVC(index, depth)
}

// Algorithm returns the engine's routing discipline.
func (e *RouteEngine) Algorithm() routing.Algorithm { return e.alg }

// Topology returns the engine's topology.
func (e *RouteEngine) Topology() topology.Topology { return e.topo }

// RouterAt resolves a node ID to its router (nil until the network finishes
// wiring). The reliability protocol's reachability oracle uses it to consult
// the same CanServe handshake state that look-ahead routing sees.
func (e *RouteEngine) RouterAt(id int) Router {
	if e.routerAt == nil {
		return nil
	}
	return e.routerAt(id)
}

// RouteAt returns the output port flit f will take at node, given that it
// will arrive there through input side from (topology.Local for freshly
// injected packets). Escape-marked packets follow strict XY regardless of
// the algorithm, preserving the deadlock-free escape discipline.
func (e *RouteEngine) RouteAt(node int, from topology.Direction, f *flit.Flit) topology.Direction {
	cur := e.topo.Coord(node)
	dst := e.topo.Coord(f.Dst)
	if cur == dst {
		return topology.Local
	}
	if tor, ok := e.topo.(topology.Toroidal); ok {
		// Torus extension (flat or multi-chip): dimension order around the
		// shortest way; the engine is restricted to XY on tori (see
		// DESIGN.md).
		return routing.TorusDimensionOrder(tor.Width(), tor.Height(), cur, dst)
	}
	switch e.alg {
	case routing.XY:
		return routing.DimensionOrder(cur, dst, flit.XFirst)
	case routing.XYYX:
		return routing.DimensionOrder(cur, dst, f.Mode)
	default:
		return e.adaptiveAt(node, cur, dst, e.topo.Coord(f.Src), from)
	}
}

// adaptiveAt ranks the productive directions at node by downstream
// congestion, skipping directions the router itself cannot serve (module
// faults) and directions leading into completely unreachable neighbors —
// the fault knowledge the paper's handshaking signals provide.
func (e *RouteEngine) adaptiveAt(node int, cur, dst, src topology.Coord, from topology.Direction) topology.Direction {
	dirs := routing.OddEvenDirs(src, cur, dst)
	var self Router
	if e.routerAt != nil {
		self = e.routerAt(node)
	}
	best := topology.Invalid
	bestCost := 0.0
	fallback := dirs[0]
	for _, d := range dirs {
		if self != nil {
			if !self.CanServe(from, d) {
				continue
			}
			if nb, ok := e.topo.Neighbor(node, d); ok {
				nbr := e.routerAt(nb)
				// Skip a neighbor that cannot accept anything on the side
				// we would enter, unless it is the destination itself
				// (ejection is served even by a half-degraded router).
				if nb != e.topo.ID(dst) && nbr != nil && !nbr.CanServe(d.Opposite(), topology.Invalid) {
					continue
				}
			}
		}
		cost := 0.0
		if self != nil {
			cost = self.CongestionCost(d)
		}
		if best == topology.Invalid || cost < bestCost {
			best, bestCost = d, cost
		}
	}
	if best == topology.Invalid {
		// Every productive direction is fault-blocked; keep requesting the
		// first one. The packet stalls, which is the honest outcome for a
		// minimal router hemmed in by faults.
		return fallback
	}
	return best
}

// FirstHop computes the output port for a packet injected at node src,
// trying the packet's preferred mode first. For XY-YX routing the source PE
// knows its own neighbors' health (handshake), so if the preferred first
// hop leads into a fully blocked neighbor it flips the dimension order.
func (e *RouteEngine) FirstHop(src int, f *flit.Flit) topology.Direction {
	out := e.RouteAt(src, topology.Local, f)
	if e.alg != routing.XYYX || out == topology.Local || e.routerAt == nil {
		return out
	}
	if nb, ok := e.topo.Neighbor(src, out); ok {
		nbr := e.routerAt(nb)
		if nbr != nil && !nbr.CanServe(out.Opposite(), topology.Invalid) && nb != f.Dst {
			flipped := f.Mode
			if flipped == flit.XFirst {
				flipped = flit.YFirst
			} else {
				flipped = flit.XFirst
			}
			f.Mode = flipped
			return e.RouteAt(src, topology.Local, f)
		}
	}
	return out
}
