package network

import (
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

func rocoBuilder(id int, e *router.RouteEngine) router.Router { return core.New(id, e) }

func rocoConfig(alg routing.Algorithm, pattern traffic.Pattern, rate float64, seed uint64) Config {
	cfg := smokeConfig(alg, pattern, rate, seed)
	cfg.Build = rocoBuilder
	return cfg
}

func TestRoCoDrainsAllAlgorithms(t *testing.T) {
	for _, alg := range routing.Algorithms {
		for _, pattern := range []traffic.Pattern{traffic.Uniform, traffic.Transpose} {
			alg, pattern := alg, pattern
			t.Run(alg.String()+"/"+pattern.String(), func(t *testing.T) {
				res := New(rocoConfig(alg, pattern, 0.10, 21)).Run()
				if res.Saturated {
					t.Fatalf("low-load run saturated: %+v", res.Summary)
				}
				if got := res.Summary.Completion; got != 1 {
					t.Fatalf("completion = %v, want 1", got)
				}
				if res.Summary.AvgLatency < 3 || res.Summary.AvgLatency > 60 {
					t.Fatalf("implausible avg latency %v", res.Summary.AvgLatency)
				}
				t.Logf("%s/%s: %s", alg, pattern, res.Summary)
			})
		}
	}
}

func TestRoCoHighLoadNoDeadlock(t *testing.T) {
	for _, alg := range routing.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			cfg := rocoConfig(alg, traffic.Uniform, 0.38, 5)
			cfg.MeasurePackets = 5000
			res := New(cfg).Run()
			if res.Summary.Completion < 0.99 {
				t.Fatalf("completion = %v at 38%% load; deadlock suspected", res.Summary.Completion)
			}
			t.Logf("%s: %s", alg, res.Summary)
		})
	}
}

func TestRoCoBeatsGenericLatency(t *testing.T) {
	// The headline claim, in miniature: at a moderate load the RoCo router
	// should deliver lower average latency than the generic router.
	for _, alg := range routing.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			g := New(smokeConfig(alg, traffic.Uniform, 0.25, 11)).Run()
			rc := New(rocoConfig(alg, traffic.Uniform, 0.25, 11)).Run()
			if rc.Summary.AvgLatency >= g.Summary.AvgLatency {
				t.Fatalf("RoCo latency %.2f >= generic %.2f under %s",
					rc.Summary.AvgLatency, g.Summary.AvgLatency, alg)
			}
			t.Logf("%s: roco=%.2f generic=%.2f", alg, rc.Summary.AvgLatency, g.Summary.AvgLatency)
		})
	}
}

func TestRoCoEarlyEjectionCounts(t *testing.T) {
	res := New(rocoConfig(routing.XY, traffic.Uniform, 0.10, 2)).Run()
	if res.Activity.EarlyEjections == 0 {
		t.Fatal("no early ejections recorded; the mechanism is not firing")
	}
	if res.Activity.Ejections != 0 {
		t.Fatalf("RoCo recorded %d crossbar ejections; all ejections should be early", res.Activity.Ejections)
	}
}

func TestRoCoGracefulDegradationCriticalFault(t *testing.T) {
	// One crossbar fault in the middle of the mesh: the RoCo network keeps a
	// much larger share of traffic flowing than the generic network, whose
	// afflicted node blocks entirely.
	flts := []fault.Fault{{Node: 5, Component: fault.Crossbar, Module: fault.RowModule}}

	gCfg := smokeConfig(routing.XY, traffic.Uniform, 0.15, 9)
	gCfg.Faults = flts
	gCfg.InactivityLimit = 1000
	g := New(gCfg).Run()

	rCfg := rocoConfig(routing.XY, traffic.Uniform, 0.15, 9)
	rCfg.Faults = flts
	rCfg.InactivityLimit = 1000
	rc := New(rCfg).Run()

	if rc.Summary.Completion <= g.Summary.Completion {
		t.Fatalf("RoCo completion %.3f <= generic %.3f under a row-module crossbar fault",
			rc.Summary.Completion, g.Summary.Completion)
	}
	if rc.Summary.Completion < 0.5 {
		t.Fatalf("RoCo completion %.3f implausibly low for one module fault", rc.Summary.Completion)
	}
	t.Logf("completion: roco=%.3f generic=%.3f", rc.Summary.Completion, g.Summary.Completion)
}

func TestRoCoNonCriticalFaultsFullyRecovered(t *testing.T) {
	// RC and buffer faults are absorbed by double routing and virtual
	// queuing: every packet still completes, with a latency penalty only.
	for _, comp := range []fault.Component{fault.RC, fault.Buffer} {
		comp := comp
		t.Run(comp.String(), func(t *testing.T) {
			cfg := rocoConfig(routing.XY, traffic.Uniform, 0.15, 17)
			cfg.Faults = []fault.Fault{{Node: 5, Component: comp, Module: fault.RowModule, VC: 0}}
			cfg.InactivityLimit = 2000
			res := New(cfg).Run()
			if res.Summary.Completion != 1 {
				t.Fatalf("completion = %v with a %s fault; recovery scheme not working", res.Summary.Completion, comp)
			}
			t.Logf("%s: %s", comp, res.Summary)
		})
	}
}

func TestRoCoColumnModuleFaultBlocksOnlyColumn(t *testing.T) {
	top := topology.NewMesh(4, 4)
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0.0, 1)
	n := New(cfg)
	r := n.routers[5].(*core.Router)
	r.ApplyFault(fault.Fault{Node: 5, Component: fault.VA, Module: fault.ColumnModule})
	if !r.Blocked(core.Col) || r.Blocked(core.Row) {
		t.Fatal("VA fault in column module should block only the column module")
	}
	if r.CanServe(topology.East, topology.West) != true {
		t.Fatal("row module service should survive a column-module fault")
	}
	if r.CanServe(topology.East, topology.North) {
		t.Fatal("column-module service should be blocked")
	}
	if !r.CanServe(topology.East, topology.Local) {
		t.Fatal("early ejection should survive a module fault")
	}
	_ = top
}
