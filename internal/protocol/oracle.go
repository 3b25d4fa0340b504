package protocol

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// Oracle is the fault-region reachability map: it decides whether a fresh
// copy launched at src can still reach dst under the faults currently
// installed, by replaying the exact service checks the simulator applies
// along the route — the source PE's CanServe gate at injection and the
// per-hop look-ahead CanServe gate that dooms blocked wormholes.
//
// For dimension-order disciplines (XY, XY-YX, torus) the route of a copy
// is a function of (src, dst, mode) alone, so the walk is exact: the
// oracle says deliverable if and only if the copy cannot be source-dropped
// or doomed by the current fault map. For minimal adaptive routing the
// route also depends on live congestion, so the oracle answers the weaker
// question "does any odd-even-legal, service-clean path exist" — it never
// gives up falsely, and copies that adaptive routing keeps steering into
// faults anyway are bounded by the retry cap instead.
//
// Faults never heal, so answers only ever flip from deliverable to not;
// results are cached per (src, dst) until Invalidate is called after a
// fault installation.
type Oracle struct {
	engine *router.RouteEngine
	cache  map[uint64]oracleResult
}

type oracleResult struct {
	ok   bool
	mode flit.RouteMode
}

// NewOracle builds an oracle over the network's route engine.
func NewOracle(engine *router.RouteEngine) *Oracle {
	return &Oracle{engine: engine, cache: make(map[uint64]oracleResult)}
}

// Invalidate drops all cached answers; the network calls it after
// installing a runtime fault.
func (o *Oracle) Invalidate() {
	clear(o.cache)
}

// Deliverable reports whether a fresh copy can still reach dst from src,
// and the route mode the copy should be launched with. Under XY-YX the
// mode is the surviving dimension order — the protocol's fault-region
// rerouting: if faults cut the XY path but not the YX path, retransmitted
// copies flip their dimension order instead of dying on the broken one.
func (o *Oracle) Deliverable(src, dst int) (bool, flit.RouteMode) {
	key := uint64(src)<<32 | uint64(uint32(dst))
	if r, ok := o.cache[key]; ok {
		return r.ok, r.mode
	}
	r := o.compute(src, dst)
	o.cache[key] = r
	return r.ok, r.mode
}

func (o *Oracle) compute(src, dst int) oracleResult {
	switch alg := o.engine.Algorithm(); {
	case o.engine.Topology().Wraps() || alg == routing.XY:
		return oracleResult{ok: o.walk(src, dst, flit.XFirst), mode: flit.XFirst}
	case alg == routing.XYYX:
		if o.walk(src, dst, flit.XFirst) {
			return oracleResult{ok: true, mode: flit.XFirst}
		}
		if o.walk(src, dst, flit.YFirst) {
			return oracleResult{ok: true, mode: flit.YFirst}
		}
		return oracleResult{mode: flit.XFirst}
	default:
		return oracleResult{ok: o.search(src, dst), mode: flit.ModeAdaptive}
	}
}

// walk replays a dimension-order route hop by hop, applying the simulator's
// own service gates: at every node (the source included) the router must
// CanServe(entry side, computed output) — the very check that source-drops
// unroutable packets at injection and dooms wormholes at the upstream
// look-ahead. Reaching the Local output means the ejection gate passed and
// the copy delivers.
func (o *Oracle) walk(src, dst int, mode flit.RouteMode) bool {
	topo := o.engine.Topology()
	f := &flit.Flit{Type: flit.HeadTail, Src: src, Dst: dst, Mode: mode}
	node, from := src, topology.Local
	for hops := 0; hops <= topo.Nodes(); hops++ {
		r := o.engine.RouterAt(node)
		if r == nil {
			return false
		}
		out := o.engine.RouteAt(node, from, f)
		if !r.CanServe(from, out) {
			return false
		}
		if out == topology.Local {
			return true
		}
		nb, ok := topo.Neighbor(node, out)
		if !ok {
			return false
		}
		node, from = nb, out.Opposite()
	}
	// Dimension-order routes are loop-free; running past the hop bound
	// means the engine is misconfigured, and "unreachable" is the safe
	// answer (the copy would never deliver either).
	return false
}

// search explores the odd-even-legal route graph breadth-first for minimal
// adaptive routing. States are (node, entry side) because the turn-model
// and CanServe gates both depend on the side a copy enters on. Edges apply
// the same filters adaptiveAt does: the router must serve the turn and the
// next node must accept traffic on the entered side (unless it is the
// destination, whose ejection is gated separately).
func (o *Oracle) search(src, dst int) bool {
	topo := o.engine.Topology()
	srcC, dstC := topo.Coord(src), topo.Coord(dst)
	const sides = int(topology.Local) + 1
	visited := make([]bool, topo.Nodes()*sides)
	type state struct {
		node int
		from topology.Direction
	}
	queue := []state{{src, topology.Local}}
	visited[src*sides+int(topology.Local)] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		r := o.engine.RouterAt(s.node)
		if r == nil {
			continue
		}
		if s.node == dst {
			if r.CanServe(s.from, topology.Local) {
				return true
			}
			continue
		}
		for _, d := range routing.OddEvenDirs(srcC, topo.Coord(s.node), dstC) {
			if !r.CanServe(s.from, d) {
				continue
			}
			nb, ok := topo.Neighbor(s.node, d)
			if !ok {
				continue
			}
			if nbr := o.engine.RouterAt(nb); nb != dst && nbr != nil && !nbr.CanServe(d.Opposite(), topology.Invalid) {
				continue
			}
			idx := nb*sides + int(d.Opposite())
			if visited[idx] {
				continue
			}
			visited[idx] = true
			queue = append(queue, state{nb, d.Opposite()})
		}
	}
	return false
}
