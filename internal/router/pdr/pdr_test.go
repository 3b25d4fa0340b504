package pdr

import (
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

func newHarness(t *testing.T, w, h int) *routertest.Harness[*Router] {
	t.Helper()
	return routertest.New(t, w, h, routing.XY, New)
}

func TestPDRConcatenatedTransferObserved(t *testing.T) {
	// A turning packet must be observed in a fromX (internal transfer)
	// channel at its corner router — the concatenated traversal.
	h := newHarness(t, 4, 4)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 1})
	dst := h.Topo.ID(topology.Coord{X: 2, Y: 3})
	corner := h.Topo.ID(topology.Coord{X: 2, Y: 1})
	pkt := h.Inject(t, src, dst, 4)

	sawTransfer := false
	for i := 0; i < 300 && len(h.Sunk) < 4; i++ {
		for id, vc := range h.Routers[corner].VCs {
			if f := vc.Front(); f != nil && f.PacketID == pkt && portOfVC(id) == portFromX {
				sawTransfer = true
			}
		}
		h.Step()
	}
	if !sawTransfer {
		t.Error("turning packet never observed in the internal transfer channel")
	}
	if len(h.Sunk) < 4 {
		t.Fatal("packet never delivered")
	}
	// And the corner router's crossbars fired twice per flit: once in the
	// X-module (into the transfer channel) and once in the Y-module.
	if traversals := h.Routers[corner].Activity().CrossbarTraversals; traversals < 8 {
		t.Errorf("corner router traversals = %d, want >= 8 (two per flit)", traversals)
	}
}

func TestPDREjectionGoesThroughYModule(t *testing.T) {
	// Even a pure-X packet must transfer into the Y-module to eject: the
	// destination router sees 2 traversals per flit.
	h := newHarness(t, 4, 4)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 1})
	dst := h.Topo.ID(topology.Coord{X: 2, Y: 1})
	h.Inject(t, src, dst, 4)
	for i := 0; i < 300 && len(h.Sunk) < 4; i++ {
		h.Step()
	}
	if len(h.Sunk) < 4 {
		t.Fatal("packet never delivered")
	}
	act := h.Routers[dst].Activity()
	if act.CrossbarTraversals != 8 {
		t.Errorf("destination traversals = %d, want 8 (X-module + Y-module per flit)", act.CrossbarTraversals)
	}
	if act.Ejections != 4 {
		t.Errorf("ejections = %d, want 4", act.Ejections)
	}
	if act.EarlyEjections != 0 {
		t.Error("PDR has no early ejection")
	}
}

func TestPDRRejectsNonXYAtConstruction(t *testing.T) {
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), routing.Adaptive, nil)
	defer func() {
		if recover() == nil {
			t.Error("PDR with adaptive routing should panic at construction")
		}
	}()
	New(0, engine)
}

func TestPDRFaultBlocksEverything(t *testing.T) {
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), routing.XY, nil)
	r := New(5, engine)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.RC})
	if r.CanServe(topology.East, topology.West) || r.InputVCClaimable(topology.East, 0) {
		t.Error("any fault blocks the whole PDR node")
	}
}

func TestPDRArrivalPortMapping(t *testing.T) {
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), routing.XY, nil)
	r := New(5, engine)
	// A link's claimable channels are exactly its arrival port's.
	for vc := 0; vc < NumVCs; vc++ {
		claimable := r.InputVCClaimable(topology.West, vc)
		want := portOfVC(vc) == portFromW
		if claimable != want {
			t.Errorf("vc %d claimable from the west link = %v, want %v", vc, claimable, want)
		}
	}
	// Internal and PE channels are never claimable from any link.
	for _, from := range topology.CardinalDirections {
		for vc := portFromPE * VCsPerPort; vc < (portFromPE+1)*VCsPerPort; vc++ {
			if r.InputVCClaimable(from, vc) {
				t.Errorf("PE channel %d claimable from link %s", vc, from)
			}
		}
		for vc := portFromX * VCsPerPort; vc < (portFromX+1)*VCsPerPort; vc++ {
			if r.InputVCClaimable(from, vc) {
				t.Errorf("transfer channel %d claimable from link %s", vc, from)
			}
		}
	}
}
