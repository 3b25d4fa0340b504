package router

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// RouteEngine computes look-ahead routes: the output port a flit will
// request at the router it is about to be sent to. All three router models
// share it — the paper's generic router computes the route in its first
// pipeline stage, which is timing-equivalent to look-ahead in this
// simulator's 2-cycle hop model; RoCo and the Path-Sensitive router exploit
// the look-ahead result for guided queuing and early ejection.
//
// The engine is also the one object every router builder receives, so it
// carries the network-wide context a router is built with: the exported
// fields below. The network sets them once, before the first builder
// runs, and InitChassis copies them into the chassis; no tick phase reads
// through the engine. A standalone engine (NewRouteEngine alone, as unit
// tests use it) has sinks that do nothing and a fresh registry.
type RouteEngine struct {
	topo *topology.Grid
	alg  routing.Algorithm
	// routerAt resolves a node ID to its router, giving the engine access
	// to the neighbor handshake state (fault capability and congestion)
	// that adaptive routing consults.
	routerAt func(id int) Router

	// Deliver and Drop are the network's delivery and drop sinks, keyed by
	// the emitting node. Every flit a router discards (doomed wormholes,
	// dead-node drains) reaches Drop exactly once, with its reason, so
	// flit conservation stays auditable and loss is attributable.
	Deliver Sink
	Drop    DropSink
	// Broken is the network-wide broken-packet registry: packets that lost
	// at least one flit anywhere. Routers sweep it each Tick and doom
	// their resident fragments of broken packets.
	Broken *BrokenSet
	// MaxLinkDelay is the per-flit horizon of the slowest multi-cycle link
	// (the larger of a die-to-die pipe's latency and serialization gap),
	// 0 when every link is a one-cycle latch. Routers stretch their
	// orphan-reap age by it (see orphanAge).
	MaxLinkDelay int64
	// FullTick selects the reference kernel's routers: Tick runs every
	// phase even when the router is Idle, so the ungated baseline executes
	// (and benchmarks) the full tick-everything cost, and NewVC builds
	// eager standalone channels. Otherwise channels are lazy and
	// slab-resident in one arena (the gated kernel's memory diet). Results
	// are identical either way.
	FullTick bool

	arena VCArena
}

// NewRouteEngine builds a standalone engine over the given topology and
// algorithm: sinks that do nothing and a fresh broken-packet registry,
// which the network replaces with its own before building routers.
// routerAt may be nil for a router that is never wired; adaptive
// decisions then fall back to dimension order.
func NewRouteEngine(topo *topology.Grid, alg routing.Algorithm, routerAt func(id int) Router) *RouteEngine {
	return &RouteEngine{
		topo: topo, alg: alg, routerAt: routerAt,
		Deliver: func(int, *flit.Flit, int64) {},
		Drop:    func(int, *flit.Flit, int64, trace.DropReason) {},
		Broken:  NewBrokenSet(),
	}
}

// NewVC builds one virtual channel for a router under construction: a
// lazy slab-resident one normally, an eager standalone one under
// FullTick. Routers must allocate their channels through this so the
// kernel's layout choice reaches every router kind.
func (e *RouteEngine) NewVC(index, depth int) *VC {
	if e.FullTick {
		return NewVC(index, depth)
	}
	return e.arena.NewVC(index, depth)
}

// Algorithm returns the engine's routing discipline.
func (e *RouteEngine) Algorithm() routing.Algorithm { return e.alg }

// Topology returns the engine's topology.
func (e *RouteEngine) Topology() *topology.Grid { return e.topo }

// RouterAt resolves a node ID to its router (nil until the network has built
// it). AttachOutput finds each link's downstream router through it, and the
// reliability protocol's reachability oracle uses it to consult the same
// CanServe handshake state that look-ahead routing sees.
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
	if e.topo.Wraps() {
		// Torus extension (flat or multi-chip): dimension order around the
		// shortest way; the engine is restricted to XY on tori (see
		// DESIGN.md).
		return routing.TorusDimensionOrder(e.topo.Width(), e.topo.Height(), cur, dst)
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
