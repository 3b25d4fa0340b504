package core

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// harness is the shared router test mesh over RoCo routers, plus the
// RoCo-specific probes below.
type harness struct {
	*routertest.Harness[*Router]
}

func newHarness(t *testing.T, w, h int, alg routing.Algorithm) harness {
	t.Helper()
	return harness{routertest.New(t, w, h, alg, New)}
}

// classAt returns the class of the channel currently holding pkt's head at
// router node, or "" when absent.
func (h harness) classAt(node int, pktID uint64) string {
	r := h.Routers[node]
	for _, vc := range r.VCs {
		if f := vc.Front(); f != nil && f.PacketID == pktID && f.Type.IsHead() {
			return vc.Class.String()
		}
	}
	return ""
}

// runUntilSunk steps until n flits have been delivered (or fails).
func (h harness) runUntilSunk(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 500 && len(h.Sunk) < n; i++ {
		h.Step()
	}
	if len(h.Sunk) < n {
		t.Fatalf("only %d/%d flits delivered", len(h.Sunk), n)
	}
}

func TestGuidedQueuingPlacesByClass(t *testing.T) {
	// A packet from (0,1) to (3,2) under XY: travels E,E,E then N then
	// ejects. At intermediate routers its head must sit in dx channels; at
	// the turn corner (3,1) in a txy channel.
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 1})
	dst := h.Topo.ID(topology.Coord{X: 3, Y: 2})
	corner := h.Topo.ID(topology.Coord{X: 3, Y: 1})
	mid := h.Topo.ID(topology.Coord{X: 1, Y: 1})
	pktID := uint64(src*1000 + dst)

	h.Inject(t, src, dst, 4)
	sawDx, sawTxy := false, false
	for i := 0; i < 200 && len(h.Sunk) < 4; i++ {
		if h.classAt(mid, pktID) == "dx" {
			sawDx = true
		}
		if cl := h.classAt(corner, pktID); cl != "" {
			if cl != "txy" {
				t.Fatalf("head at the turn corner sits in %q, want txy", cl)
			}
			sawTxy = true
		}
		h.Step()
	}
	if !sawDx {
		t.Error("head never observed in a dx channel mid-row")
	}
	if !sawTxy {
		t.Error("head never observed in a txy channel at the corner")
	}
	h.runUntilSunk(t, 4)
}

func TestGuidedQueuingInjectionClasses(t *testing.T) {
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 1, Y: 1})

	// X-bound packet starts in an Injxy channel.
	dstX := h.Topo.ID(topology.Coord{X: 3, Y: 1})
	h.Inject(t, src, dstX, 1)
	if cl := h.classAt(src, uint64(src*1000+dstX)); cl != "Injxy" {
		t.Errorf("X-bound injection sits in %q, want Injxy", cl)
	}
	// Y-bound packet starts in the Injyx channel.
	dstY := h.Topo.ID(topology.Coord{X: 1, Y: 3})
	h.Inject(t, src, dstY, 1)
	if cl := h.classAt(src, uint64(src*1000+dstY)); cl != "Injyx" {
		t.Errorf("Y-bound injection sits in %q, want Injyx", cl)
	}
	h.runUntilSunk(t, 2)
}

func TestEarlyEjectionNeverTouchesCrossbar(t *testing.T) {
	h := newHarness(t, 4, 4, routing.XY)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 0})
	dst := h.Topo.ID(topology.Coord{X: 2, Y: 0})
	h.Inject(t, src, dst, 4)
	h.runUntilSunk(t, 4)

	dstRouter := h.Routers[dst]
	if dstRouter.Activity().CrossbarTraversals != 0 {
		t.Errorf("destination router's crossbar fired %d times; early ejection should bypass it",
			dstRouter.Activity().CrossbarTraversals)
	}
	if dstRouter.Activity().EarlyEjections != 4 {
		t.Errorf("early ejections = %d, want 4", dstRouter.Activity().EarlyEjections)
	}
}

func TestYFirstPacketRidesTyx(t *testing.T) {
	// Under XY-YX, a Y-first packet's X leg must occupy tyx-class channels
	// (the deadlock discipline of DESIGN.md 3a).
	h := newHarness(t, 4, 4, routing.XYYX)
	src := h.Topo.ID(topology.Coord{X: 0, Y: 0})
	dst := h.Topo.ID(topology.Coord{X: 3, Y: 2})
	mid := h.Topo.ID(topology.Coord{X: 1, Y: 2}) // on the X leg after the Y leg
	pkt := flit.Packet{ID: 42, Src: src, Dst: dst, Flits: 4, Mode: flit.YFirst}

	h.InjectPacket(t, pkt)
	sawTyx := false
	for i := 0; i < 300 && len(h.Sunk) < 4; i++ {
		if cl := h.classAt(mid, 42); cl != "" {
			if cl != "tyx" {
				t.Fatalf("Y-first packet's X leg sits in %q, want tyx", cl)
			}
			sawTyx = true
		}
		h.Step()
	}
	if !sawTyx {
		t.Error("Y-first packet never observed in a tyx channel on its X leg")
	}
	h.runUntilSunk(t, 4)
}

func TestMirrorModulesIndependent(t *testing.T) {
	// Two packets, one pure-X and one pure-Y through the same router, must
	// both be in flight concurrently: the modules do not serialize each
	// other.
	h := newHarness(t, 4, 4, routing.XY)
	center := h.Topo.ID(topology.Coord{X: 1, Y: 1})
	westOf := h.Topo.ID(topology.Coord{X: 0, Y: 1})
	eastOf := h.Topo.ID(topology.Coord{X: 3, Y: 1})
	southOf := h.Topo.ID(topology.Coord{X: 1, Y: 0})
	northOf := h.Topo.ID(topology.Coord{X: 1, Y: 3})

	h.Inject(t, westOf, eastOf, 4)   // X traffic through center
	h.Inject(t, southOf, northOf, 4) // Y traffic through center
	h.runUntilSunk(t, 8)

	act := h.Routers[center].Activity()
	if act.CrossbarTraversals < 8 {
		t.Errorf("center router switched %d flits, want >= 8", act.CrossbarTraversals)
	}
}
