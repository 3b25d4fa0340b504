package core

import (
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

func newTestRouter(alg routing.Algorithm) *Router {
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), alg, nil)
	return New(5, engine) // node 5 = (1,1), fully interior
}

func TestCanServeHealthy(t *testing.T) {
	r := newTestRouter(routing.XY)
	cases := []struct {
		from, out topology.Direction
		want      bool
	}{
		{topology.East, topology.West, true},   // dx continuation
		{topology.North, topology.South, true}, // dy continuation
		{topology.East, topology.North, true},  // txy turn
		{topology.East, topology.Local, true},  // early ejection
		{topology.Local, topology.East, true},  // injection
		{topology.North, topology.East, false}, // tyx: XY config has no tyx channels
	}
	for _, tc := range cases {
		if got := r.CanServe(tc.from, tc.out); got != tc.want {
			t.Errorf("CanServe(%s,%s) = %v, want %v", tc.from, tc.out, got, tc.want)
		}
	}
}

func TestCanServeAdaptiveHasAllTurns(t *testing.T) {
	r := newTestRouter(routing.Adaptive)
	if !r.CanServe(topology.North, topology.East) {
		t.Error("adaptive config must serve tyx turns")
	}
}

func TestModuleFaultIsolatesOnlyOneModule(t *testing.T) {
	for _, comp := range []fault.Component{fault.VA, fault.Crossbar, fault.MuxDemux} {
		r := newTestRouter(routing.XY)
		r.ApplyFault(fault.Fault{Node: 5, Component: comp, Module: fault.RowModule})
		if !r.Blocked(Row) || r.Blocked(Col) {
			t.Errorf("%s fault should block exactly the row module", comp)
		}
		if r.CanServe(topology.East, topology.West) {
			t.Errorf("%s: row service should be blocked", comp)
		}
		if !r.CanServe(topology.North, topology.South) {
			t.Errorf("%s: column service should survive", comp)
		}
		if !r.CanServe(topology.East, topology.Local) {
			t.Errorf("%s: early ejection should survive", comp)
		}
		if !r.CanServe(topology.East, topology.Invalid) {
			t.Errorf("%s: partial service should be reported", comp)
		}
	}
}

func TestRecoverableFaultsDoNotBlock(t *testing.T) {
	for _, comp := range []fault.Component{fault.RC, fault.Buffer, fault.SA} {
		r := newTestRouter(routing.XY)
		r.ApplyFault(fault.Fault{Node: 5, Component: comp, Module: fault.RowModule, VC: 0})
		if r.Blocked(Row) || r.Blocked(Col) {
			t.Errorf("%s fault must not block a module (hardware recycling)", comp)
		}
	}
}

func TestBufferFaultDegradesChannel(t *testing.T) {
	r := newTestRouter(routing.XY)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.Buffer, Module: fault.RowModule, VC: 3})
	if d := r.InputVCDepth(topology.West, 3); d != 1 {
		t.Errorf("faulty buffer depth = %d, want 1 (bypass latch)", d)
	}
	if d := r.InputVCDepth(topology.West, 4); d != BufferDepth {
		t.Errorf("healthy buffer depth = %d, want %d", d, BufferDepth)
	}
}

func TestBlockedModuleDepthsAndClaims(t *testing.T) {
	r := newTestRouter(routing.XY)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.Crossbar, Module: fault.ColumnModule})
	for id := 0; id < NumVCs; id++ {
		wantDepth := BufferDepth
		if ModuleOfVC(id) == Col {
			wantDepth = 0
		}
		if d := r.InputVCDepth(topology.South, id); d != wantDepth {
			t.Errorf("vc %d depth = %d, want %d", id, d, wantDepth)
		}
		if ModuleOfVC(id) == Col && r.InputVCClaimable(topology.South, id) {
			t.Errorf("vc %d in a blocked module must not be claimable", id)
		}
	}
}

func TestCongestionCostBlockedModule(t *testing.T) {
	r := newTestRouter(routing.XY)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.VA, Module: fault.RowModule})
	if r.CongestionCost(topology.East) < 1e6 {
		t.Error("blocked module output should be prohibitively expensive")
	}
}

func TestClaimProtocol(t *testing.T) {
	r := newTestRouter(routing.XY)
	if !r.InputVCClaimable(topology.West, 3) {
		t.Fatal("fresh channel should be claimable")
	}
	if !r.ClaimInputVC(topology.West, 3) {
		t.Fatal("claim should succeed")
	}
	if r.ClaimInputVC(topology.East, 3) {
		t.Fatal("cross-feeder claim of an occupied channel must fail")
	}
	if !r.ClaimInputVC(topology.West, 3) {
		t.Fatal("same-feeder back-to-back claim should succeed")
	}
}

func TestLoopbackInjection(t *testing.T) {
	var delivered []*flit.Flit
	engine := router.NewRouteEngine(topology.NewMesh(4, 4), routing.XY, nil)
	engine.Deliver = func(_ int, f *flit.Flit, _ int64) { delivered = append(delivered, f) }
	r := New(5, engine)
	fl := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 5, Dst: 5, Flits: 4}, nil)
	for _, f := range fl {
		f.OutPort = topology.Local
		if !r.TryInject(f, 0) {
			t.Fatal("loopback injection must always be accepted")
		}
	}
	if len(delivered) != 4 {
		t.Fatalf("delivered %d flits, want 4", len(delivered))
	}
	if r.BufferedFlits() != 0 {
		t.Error("router should be quiescent after loopback")
	}
}

func TestInjectionRespectsBlockedModule(t *testing.T) {
	r := newTestRouter(routing.XY)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.Crossbar, Module: fault.RowModule})
	head := flit.AppendSegment(nil, flit.Packet{ID: 1, Src: 5, Dst: 6, Flits: 1}, nil)[0]
	head.OutPort = topology.East
	if r.TryInject(head, 0) {
		t.Error("injection into a blocked row module must fail")
	}
	head2 := flit.AppendSegment(nil, flit.Packet{ID: 2, Src: 5, Dst: 9, Flits: 1}, nil)[0]
	head2.OutPort = topology.North
	if !r.TryInject(head2, 0) {
		t.Error("injection into the healthy column module must succeed")
	}
}

func TestNumInputVCs(t *testing.T) {
	r := newTestRouter(routing.XY)
	if r.NumInputVCs(topology.East) != NumVCs {
		t.Error("RoCo addresses a router-wide namespace of 12 channels")
	}
}
