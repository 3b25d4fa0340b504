package routing_test

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// TestRouteMatchesDimensionOrder: the look-ahead route engine, which
// routes every simulated hop, follows dimension order under XY and in
// both XY-YX modes, for every (node, destination) pair of an 8x8 mesh.
func TestRouteMatchesDimensionOrder(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	for _, c := range []struct {
		alg  routing.Algorithm
		mode flit.RouteMode
	}{{routing.XY, flit.XFirst}, {routing.XYYX, flit.XFirst}, {routing.XYYX, flit.YFirst}} {
		e := router.NewRouteEngine(topo, c.alg, nil)
		for node := 0; node < topo.Nodes(); node++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				f := &flit.Flit{Src: node, Dst: dst, Mode: c.mode}
				got := e.RouteAt(node, topology.Local, f)
				if want := routing.DimensionOrder(topo.Coord(node), topo.Coord(dst), c.mode); got != want {
					t.Fatalf("%s mode %v: %d->%d routes %s, dimension order says %s", c.alg, c.mode, node, dst, got, want)
				}
			}
		}
	}
}
