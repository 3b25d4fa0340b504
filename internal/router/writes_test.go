package router_test

import (
	"testing"

	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/generic"
	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// writeRig is a 3x2 mesh of generic routers sharing the engine's
// broken-packet registry, with every drop collected. The tests send their
// packets along the row of nodes 0, 1 and 2.
type writeRig struct {
	*routertest.Harness[*generic.Router]
}

func newWriteRig(t *testing.T) *writeRig {
	t.Helper()
	return &writeRig{Harness: routertest.New(t, 3, 2, routing.XY, generic.New)}
}

// inject offers a flits-long packet from node 0 to node 2 and fails unless
// router 0 takes every flit without stepping.
func (w *writeRig) inject(t *testing.T, flits int) uint64 {
	t.Helper()
	cycle := w.Cycle
	id := w.Inject(t, 0, 2, flits)
	if w.Cycle != cycle {
		t.Fatal("injection stepped the mesh")
	}
	return id
}

// step runs one cycle and returns each router's write mask. It fails
// unless every mask names exactly the link halves the cycle staged, which
// after the advance are the readable ones: a flit on an output, credits
// back over an input.
func (w *writeRig) step(t *testing.T) []router.WriteMask {
	t.Helper()
	w.Step()
	got := make([]router.WriteMask, len(w.Routers))
	for id, r := range w.Routers {
		got[id] = r.TakeWrites()
		var want router.WriteMask
		for _, d := range topology.CardinalDirections {
			if c := w.Out(id, d); c != nil && c.Flit.Readable() {
				want |= 1 << d
			}
			if c := w.In(id, d); c != nil && c.Credit.Readable() {
				want |= 1 << (router.CreditHalf + d)
			}
		}
		if got[id] != want {
			t.Fatalf("cycle %d, router %d: write mask %08b, staged halves %08b", w.Cycle-1, id, got[id], want)
		}
	}
	return got
}

// westCredit is the credit half of a router's west input.
const westCredit = router.WriteMask(1) << (router.CreditHalf + topology.West)

// TestWriteMaskSwitchTraversal: a packet crossing the row writes the flit
// half of each east output it leaves through, and a credit back over each
// west input whose buffer slot its flits free.
func TestWriteMaskSwitchTraversal(t *testing.T) {
	w := newWriteRig(t)
	w.inject(t, 3)
	var seen [6]router.WriteMask
	for i := 0; i < 50 && len(w.Sunk) < 3; i++ {
		for id, m := range w.step(t) {
			seen[id] |= m
		}
	}
	if len(w.Sunk) != 3 {
		t.Fatalf("%d of 3 flits delivered", len(w.Sunk))
	}
	east := router.WriteMask(1) << topology.East
	if want := [6]router.WriteMask{east, east | westCredit, westCredit}; seen != want {
		t.Fatalf("halves written %08b, want %08b", seen, want)
	}
}

// TestWriteMaskDoomedDrain: a packet broken while router 1 buffers it
// drains there as drops, each freed slot returning a credit west.
func TestWriteMaskDoomedDrain(t *testing.T) {
	w := newWriteRig(t)
	id := w.inject(t, 4)
	for i := 0; w.Routers[1].BufferedFlits() == 0; i++ {
		if i > 20 {
			t.Fatal("the packet never reached router 1")
		}
		w.step(t)
	}
	w.Engine.Broken.Add(id, w.Cycle)
	drained := false
	for i := 0; i < 50 && len(w.Dropped) < 4; i++ {
		before := len(w.Dropped)
		m := w.step(t)
		if len(w.Dropped) > before && m[1] == westCredit && w.Routers[1].BufferedFlits() == 0 {
			drained = true
		}
	}
	if len(w.Dropped) != 4 || len(w.Sunk) != 0 {
		t.Fatalf("%d drops and %d deliveries, want 4 and 0", len(w.Dropped), len(w.Sunk))
	}
	if !drained {
		t.Fatal("router 1 never drained its fragment with a credit west")
	}
}

// TestWriteMaskDeadNodeDrain: router 1 dies with the packet's head on the
// link into it, so its dead tick drops each arrival and returns its
// credit west.
func TestWriteMaskDeadNodeDrain(t *testing.T) {
	w := newWriteRig(t)
	w.inject(t, 4)
	for i := 0; !w.Out(0, topology.East).Flit.Readable(); i++ {
		if i > 20 {
			t.Fatal("router 0 never sent the head")
		}
		w.step(t)
	}
	w.Routers[1].Kill()
	for i := 0; i < 50 && len(w.Dropped) < 4; i++ {
		before := len(w.Dropped)
		if m := w.step(t); len(w.Dropped) != before+1 || m[1] != westCredit {
			t.Fatalf("dead tick %d: %d drops, router 1 wrote %08b; want one drop and a credit west", i, len(w.Dropped)-before, m[1])
		}
		if !w.Out(0, topology.East).Flit.Readable() {
			break
		}
	}
	if len(w.Dropped) != 4 || len(w.Sunk) != 0 {
		t.Fatalf("%d drops and %d deliveries, want 4 and 0", len(w.Dropped), len(w.Sunk))
	}
}
