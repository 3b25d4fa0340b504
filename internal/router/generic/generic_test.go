package generic

import (
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

func newTestRouter(alg routing.Algorithm) *Router {
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), alg, nil)
	return New(5, engine)
}

func TestAnyFaultBlocksWholeNode(t *testing.T) {
	for _, comp := range fault.AllComponents() {
		r := newTestRouter(routing.XY)
		if !r.CanServe(topology.East, topology.West) {
			t.Fatal("healthy router should serve")
		}
		r.ApplyFault(fault.Fault{Node: 5, Component: comp})
		if r.CanServe(topology.East, topology.West) || r.CanServe(topology.East, topology.Local) {
			t.Errorf("%s fault should block the entire generic router", comp)
		}
		head := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 5, Dst: 6, Flits: 1}, nil)[0]
		head.OutPort = topology.East
		if r.TryInject(head, 0) {
			t.Errorf("%s: dead router accepted injection", comp)
		}
	}
}

func TestInjectionVCClasses(t *testing.T) {
	r := newTestRouter(routing.XYYX)
	x := &flit.Flit{Mode: flit.XFirst}
	y := &flit.Flit{Mode: flit.YFirst}
	const pe = int(topology.Local) * VCsPerPort // the PE port's first channel
	if got := r.Injection(x); got != (1<<xFirstVC|1<<xFirstVC2)<<pe {
		t.Errorf("XFirst injection channels = %015b", got)
	}
	if got := r.Injection(y); got != 1<<yFirstVC<<pe {
		t.Errorf("YFirst injection channels = %015b", got)
	}
	rXY := newTestRouter(routing.XY)
	if got := rXY.Injection(x); got != (1<<VCsPerPort-1)<<pe {
		t.Errorf("XY should use all injection VCs, got %015b", got)
	}
}

func TestCandidateVCClassDiscipline(t *testing.T) {
	r := newTestRouter(routing.XYYX)
	x := &flit.Flit{Mode: flit.XFirst}
	y := &flit.Flit{Mode: flit.YFirst}
	if got := r.candidates(x, topology.East, topology.East); got&(1<<yFirstVC) != 0 {
		t.Errorf("X-first packet offered the Y-first channel: candidates %03b", got)
	}
	if got := r.candidates(y, topology.North, topology.North); got != 1<<yFirstVC {
		t.Errorf("YFirst candidates = %03b", got)
	}
}

func TestTorusDatelineClasses(t *testing.T) {
	engine := router.NewRouteEngine(topology.NewGrid(1, 1, 4, 4, true), routing.XY, nil)
	// Router at (3,1): an East hop crosses the X dateline.
	r := New(7, engine)
	const dateline, preDateline = 0b010, 0b101
	fresh := &flit.Flit{}
	if got := r.candidates(fresh, topology.East, topology.East); got != dateline {
		t.Errorf("dateline-crossing hop candidates = %03b, want %03b", got, dateline)
	}
	if got := r.candidates(fresh, topology.West, topology.West); got != preDateline {
		t.Errorf("non-crossing hop candidates = %03b, want the class-0 pair %03b", got, preDateline)
	}
	crossed := &flit.Flit{CrossedX: true}
	if got := r.candidates(crossed, topology.West, topology.West); got != dateline {
		t.Errorf("post-dateline packet candidates = %03b, want %03b", got, dateline)
	}
	// A crossed-X packet's Y hops start fresh in class 0.
	if got := r.candidates(crossed, topology.North, topology.North); got != preDateline {
		t.Errorf("Y-dimension candidates after X crossing = %03b, want the class-0 pair %03b", got, preDateline)
	}
}

func TestInjectionSerializesPackets(t *testing.T) {
	r := newTestRouter(routing.XY)
	p1 := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 5, Dst: 6, Flits: 2}, nil)
	p2 := flit.AppendSegment(nil, flit.Packet{ID: 2, Src: 5, Dst: 6, Flits: 2}, nil)
	for _, f := range append(p1, p2...) {
		f.OutPort = topology.East
	}
	if !r.TryInject(p1[0], 0) {
		t.Fatal("head rejected")
	}
	if r.TryInject(p2[0], 0) {
		t.Fatal("second head accepted before first tail")
	}
	if !r.TryInject(p1[1], 1) {
		t.Fatal("tail rejected")
	}
	if !r.TryInject(p2[0], 2) {
		t.Fatal("second head rejected after first tail")
	}
}

func TestQuiescentTracksBufferedFlits(t *testing.T) {
	r := newTestRouter(routing.XY)
	if r.BufferedFlits() != 0 {
		t.Fatal("fresh router should be quiescent")
	}
	head := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 5, Dst: 6, Flits: 1}, nil)[0]
	head.OutPort = topology.East
	if !r.TryInject(head, 0) {
		t.Fatal("injection failed")
	}
	if r.BufferedFlits() == 0 {
		t.Fatal("router with a buffered flit is not quiescent")
	}
}

func TestCongestionCostRange(t *testing.T) {
	// Node 0 of a 2x2 mesh: East reaches node 1, West leaves the mesh.
	r := routertest.New(t, 2, 2, routing.XY, New).Routers[0]
	if c := r.CongestionCost(topology.East); c != 0 {
		t.Errorf("idle congestion = %v, want 0", c)
	}
	if c := r.CongestionCost(topology.West); c != 0 {
		t.Errorf("unattached output congestion = %v, want 0", c)
	}
}
