package pathsensitive

import (
	"bytes"
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// testEngine is a standalone engine over an 8x8 mesh.
func testEngine(alg routing.Algorithm) *router.RouteEngine {
	return router.NewRouteEngine(topology.NewMesh(8, 8), alg, nil)
}

func newTestRouter(alg routing.Algorithm) *Router {
	return New(9, testEngine(alg)) // (1,1)
}

func TestGroupForCoversAllArrivals(t *testing.T) {
	for q := routing.Quadrant(0); q < 4; q++ {
		outs := q.Outputs()
		g0 := groupFor(q, outs[0].Opposite())
		g1 := groupFor(q, outs[1].Opposite())
		g2 := groupFor(q, topology.Local)
		if g0 != 0 || g1 != 1 || g2 != 2 {
			t.Errorf("%s groups = %d,%d,%d", q, g0, g1, g2)
		}
	}
}

func TestSetOfVC(t *testing.T) {
	if setOfVC(0) != routing.NE || setOfVC(5) != routing.NW || setOfVC(11) != routing.SW {
		t.Error("set layout wrong")
	}
}

func TestAnyFaultBlocksNode(t *testing.T) {
	for _, comp := range fault.AllComponents() {
		r := newTestRouter(routing.XY)
		r.ApplyFault(fault.Fault{Node: 9, Component: comp})
		if r.CanServe(topology.East, topology.West) {
			t.Errorf("%s fault should block the path-sensitive router", comp)
		}
		if r.InputVCClaimable(topology.East, 0) {
			t.Errorf("%s: dead router's channels must not be claimable", comp)
		}
		if r.InputVCDepth(topology.East, 0) != 0 {
			t.Errorf("%s: dead router should expose zero-depth channels", comp)
		}
	}
}

func TestInjectionUsesDedicatedGroup(t *testing.T) {
	r := newTestRouter(routing.XY)
	head := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 9, Dst: 27, Flits: 1}, nil)[0] // 27=(3,3): NE of (1,1)
	head.OutPort = topology.East
	if !r.TryInject(head, 0) {
		t.Fatal("injection failed")
	}
	// The flit must sit in the NE set's injection group (group 2).
	id := int(routing.NE)*VCsPerSet + 2
	if r.VCs[id].Len() != 1 {
		t.Errorf("injected flit not in the NE injection group (vc %d)", id)
	}
}

func TestLoopbackInjection(t *testing.T) {
	n := 0
	engine := testEngine(routing.XY)
	engine.Deliver = func(int, *flit.Flit, int64) { n++ }
	r := New(9, engine)
	fl := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 9, Dst: 9, Flits: 4}, nil)
	for _, f := range fl {
		f.OutPort = topology.Local
		if !r.TryInject(f, 0) {
			t.Fatal("loopback rejected")
		}
	}
	if n != 4 || r.BufferedFlits() != 0 {
		t.Fatalf("loopback delivered %d flits, %d still buffered", n, r.BufferedFlits())
	}
}

// TestLoopbackSnapshotResumes: a snapshot taken between the flits of a
// loopback packet restores, and the restored router keeps delivering the
// packet's remaining flits straight back to the PE.
func TestLoopbackSnapshotResumes(t *testing.T) {
	r := newTestRouter(routing.XY)
	fl := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 9, Dst: 9, Flits: 4}, nil)
	fl[0].OutPort = topology.Local
	if !r.TryInject(fl[0], 0) {
		t.Fatal("loopback head rejected")
	}
	e := snapshot.NewEncoder()
	r.State(e.Stream(), &flit.Codec{})
	var frame bytes.Buffer
	if _, err := e.WriteTo(&frame); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Read(&frame)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	engine := testEngine(routing.XY)
	engine.Deliver = func(int, *flit.Flit, int64) { n++ }
	resumed := New(9, engine)
	resumed.State(d.Stream(), &flit.Codec{})
	if d.Err() != nil {
		t.Fatalf("mid-loopback snapshot refused: %v", d.Err())
	}
	for _, f := range fl[1:] {
		if !resumed.TryInject(f, 1) {
			t.Fatal("resumed router rejected a loopback flit")
		}
	}
	if n != 3 || resumed.BufferedFlits() != 0 {
		t.Fatalf("resumed loopback delivered %d of 3 flits, %d still buffered", n, resumed.BufferedFlits())
	}
}

func TestNamespaceSize(t *testing.T) {
	r := newTestRouter(routing.XY)
	if r.NumInputVCs(topology.East) != NumVCs || NumVCs != 12 {
		t.Error("path-sensitive namespace should be 12 channels")
	}
}
