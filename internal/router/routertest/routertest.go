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
)

// Harness is a w x h mesh of routers of type R, ticked by hand.
type Harness[R router.Router] struct {
	Topo    *topology.Grid
	Engine  *router.RouteEngine
	Routers []R
	// Sunk collects every flit delivered to a PE, in delivery order.
	Sunk []*flit.Flit
	// Cycle is the next cycle Step runs.
	Cycle int64

	conns []*router.Conn
}

// New builds a w x h mesh of routers made by build, routed by alg, with
// every link wired and every PE's deliveries collected in Sunk.
func New[R router.Router](t testing.TB, w, h int, alg routing.Algorithm, build func(int, *router.RouteEngine) R) *Harness[R] {
	t.Helper()
	hn := &Harness[R]{Topo: topology.NewMesh(w, h)}
	hn.Routers = make([]R, hn.Topo.Nodes())
	hn.Engine = router.NewRouteEngine(hn.Topo, alg, func(id int) router.Router { return hn.Routers[id] })
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
			hn.conns = append(hn.conns, conn)
			down := hn.Routers[nb]
			depths := make([]int, down.NumInputVCs(d.Opposite()))
			for vc := range depths {
				depths[vc] = down.InputVCDepth(d.Opposite(), vc)
			}
			r.AttachOutput(d, conn, depths)
			r.SetNeighbor(d, down)
			down.AttachInput(d.Opposite(), conn)
		}
		r.SetSink(func(f *flit.Flit, cycle int64) { hn.Sunk = append(hn.Sunk, f) })
	}
	return hn
}

// Step ticks every router once and advances every link.
func (h *Harness[R]) Step() {
	for _, r := range h.Routers {
		r.Tick(h.Cycle)
	}
	for _, c := range h.conns {
		c.Advance()
	}
	h.Cycle++
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
	for _, f := range pkt.Segment() {
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
