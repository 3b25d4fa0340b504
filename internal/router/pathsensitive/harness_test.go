package pathsensitive

import (
	"testing"

	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// harness is the shared router test mesh over path-sensitive routers,
// plus the quadrant-set probe below.
type harness struct {
	*routertest.Harness[*Router]
}

func newHarness(t *testing.T, w, h int, alg routing.Algorithm) harness {
	t.Helper()
	return harness{routertest.New(t, w, h, alg, New)}
}

// setOfVC returns the quadrant path set owning VC id.
func setOfVC(id int) routing.Quadrant { return routing.Quadrant(id / VCsPerSet) }

// setHolding returns the quadrant set whose channels hold pkt's head at
// node, or -1.
func (h harness) setHolding(node int, pktID uint64) routing.Quadrant {
	for id, vc := range h.Routers[node].VCs {
		if f := vc.Front(); f != nil && f.PacketID == pktID && f.Type.IsHead() {
			return setOfVC(id)
		}
	}
	return routing.Quadrant(255)
}

func TestPacketStaysInItsQuadrantSet(t *testing.T) {
	// A packet whose destination is north-east of its source must occupy
	// NE-set channels at every router on its path — the organizing
	// invariant of the design (and its deadlock argument).
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 0})
	dst := h.Topo.ID(topology.Coord{X: 3, Y: 3})
	pkt := h.Inject(t, src, dst, 4)

	for i := 0; i < 300 && len(h.Sunk) < 4; i++ {
		for node := range h.Routers {
			if q := h.setHolding(node, pkt); q != routing.Quadrant(255) && q != routing.NE {
				t.Fatalf("NE packet observed in the %s set at node %d", q, node)
			}
		}
		h.Step()
	}
	if len(h.Sunk) < 4 {
		t.Fatal("packet never delivered")
	}
}

func TestEarlyEjectionOnPathSensitive(t *testing.T) {
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 2})
	dst := h.Topo.ID(topology.Coord{X: 2, Y: 2})
	h.Inject(t, src, dst, 4)
	for i := 0; i < 300 && len(h.Sunk) < 4; i++ {
		h.Step()
	}
	dstRouter := h.Routers[dst]
	if dstRouter.Activity().CrossbarTraversals != 0 {
		t.Errorf("destination crossbar fired %d times; path-sensitive routers early-eject", dstRouter.Activity().CrossbarTraversals)
	}
	if dstRouter.Activity().EarlyEjections != 4 {
		t.Errorf("early ejections = %d, want 4", dstRouter.Activity().EarlyEjections)
	}
}

func TestChainedAllocationOnePerSetPerCycle(t *testing.T) {
	// The decomposed crossbar's defining restriction: a set moves at most
	// one flit per cycle even when both its outputs have traffic.
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 0})
	dstE := h.Topo.ID(topology.Coord{X: 3, Y: 0}) // pure-east: NE or SE by parity
	dstN := h.Topo.ID(topology.Coord{X: 0, Y: 3}) // pure-north: NE or NW by parity
	h.Inject(t, src, dstE, 4)
	h.Inject(t, src, dstN, 4)

	srcRouter := h.Routers[src]
	prev := srcRouter.Activity().CrossbarTraversals
	for i := 0; i < 300 && len(h.Sunk) < 8; i++ {
		h.Step()
		cur := srcRouter.Activity().CrossbarTraversals
		if cur-prev > 2 {
			t.Fatalf("source router moved %d flits in one cycle; 4 sets allow at most 4 (2 active here)", cur-prev)
		}
		prev = cur
	}
	if len(h.Sunk) < 8 {
		t.Fatal("packets never delivered")
	}
}
