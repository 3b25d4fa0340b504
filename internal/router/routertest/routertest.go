// Package routertest wires a small mesh of one router kind with real link
// pipes and drives it cycle by cycle, for the microarchitecture tests of
// the router packages: assertions about where a packet sits or which
// crossbar fired, which the network-level tests cannot see.
package routertest

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// Harness is a w x h mesh of routers of type R, ticked by hand.
type Harness[R router.Router] struct {
	Topo    *topology.Grid
	Engine  *router.RouteEngine
	Routers []R
	// Sunk collects every flit delivered to a PE, in delivery order, and
	// Dropped every flit a router discarded.
	Sunk, Dropped []*flit.Flit
	// Cycle is the next cycle Step runs.
	Cycle int64

	out [][4]*router.Conn // out[id][d]: the link leaving router id on side d
}

// New builds a w x h mesh of routers made by build, routed by alg, with
// every link wired, every PE's deliveries collected in Sunk and every
// drop in Dropped. The routers share the engine's fresh broken-packet
// registry.
func New[R router.Router](t testing.TB, w, h int, alg routing.Algorithm, build func(int, *router.RouteEngine) R) *Harness[R] {
	t.Helper()
	hn := &Harness[R]{Topo: topology.NewMesh(w, h)}
	hn.Routers = make([]R, hn.Topo.Nodes())
	hn.out = make([][4]*router.Conn, hn.Topo.Nodes())
	hn.Engine = router.NewRouteEngine(hn.Topo, alg, func(id int) router.Router { return hn.Routers[id] })
	hn.Engine.Deliver = func(_ int, f *flit.Flit, _ int64) { hn.Sunk = append(hn.Sunk, f) }
	hn.Engine.Drop = func(_ int, f *flit.Flit, _ int64, _ trace.DropReason) { hn.Dropped = append(hn.Dropped, f) }
	for id := range hn.Routers {
		hn.Routers[id] = build(id, hn.Engine)
	}
	for id, r := range hn.Routers {
		for _, d := range topology.CardinalDirections {
			nb, ok := hn.Topo.Neighbor(id, d)
			if !ok {
				continue
			}
			conn := &router.Conn{}
			hn.out[id][d] = conn
			r.AttachOutput(d, conn)
			hn.Routers[nb].AttachInput(d.Opposite(), conn)
		}
	}
	return hn
}

// Step ticks every router once and advances every link.
func (h *Harness[R]) Step() {
	for _, r := range h.Routers {
		r.Tick(h.Cycle)
	}
	for _, links := range h.out {
		for _, c := range links {
			if c != nil {
				c.Advance()
			}
		}
	}
	h.Cycle++
}

// Out returns the link leaving router id on cardinal side d, or nil at the
// mesh edge.
func (h *Harness[R]) Out(id int, d topology.Direction) *router.Conn { return h.out[id][d] }

// In returns the link arriving at router id on cardinal side d, or nil at
// the mesh edge.
func (h *Harness[R]) In(id int, d topology.Direction) *router.Conn {
	nb, ok := h.Topo.Neighbor(id, d)
	if !ok {
		return nil
	}
	return h.out[nb][d.Opposite()]
}

// Inject pushes a flits-long packet from src to dst into src's router,
// stepping until each flit is accepted, and returns its id (src*1000+dst).
func (h *Harness[R]) Inject(t testing.TB, src, dst, flits int) uint64 {
	t.Helper()
	pkt := flit.Packet{ID: uint64(src*1000 + dst), Src: src, Dst: dst, Flits: flits}
	h.InjectPacket(t, pkt)
	return pkt.ID
}

// InjectPacket pushes pkt into its source's router, stepping until each
// flit is accepted; it fails the test when injection starves.
func (h *Harness[R]) InjectPacket(t testing.TB, pkt flit.Packet) {
	t.Helper()
	for _, f := range flit.AppendSegment(nil, pkt, nil) {
		if f.Type.IsHead() {
			f.OutPort = h.Engine.FirstHop(pkt.Src, f)
		}
		for try := 0; !h.Routers[pkt.Src].TryInject(f, h.Cycle); try++ {
			if try > 50 {
				t.Fatal("injection starved")
			}
			h.Step()
		}
	}
}
