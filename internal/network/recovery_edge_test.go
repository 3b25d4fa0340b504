package network

import (
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// edgeConfig is a small, dense scenario for pipeline-timing edge cases: a
// 4x4 mesh at high load so the central routers always hold flits in every
// pipeline stage, with the conservation auditor on the tightest interval
// (any double-drop or lost flit panics the run).
func edgeConfig(seed uint64, events []fault.Event) Config {
	return Config{
		Topo:            topology.NewMesh(4, 4),
		Algorithm:       routing.XY,
		Build:           rocoBuilder,
		Traffic:         traffic.Config{Pattern: traffic.Uniform, Rate: 0.4, FlitsPerPacket: 4},
		WarmupPackets:   100,
		MeasurePackets:  1200,
		InactivityLimit: 1000,
		MaxCycles:       200_000,
		Seed:            seed,
		AuditEvery:      1,
		Schedule:        fault.NewSchedule(events),
	}
}

// dropSum adds up the three drop causes, which must account for every
// dropped flit.
func dropSum(d DropBreakdown) int64 { return d.Unroutable + d.InFlight + d.DeadDrain }

// TestFaultSweepHitsEveryPipelineStage installs a module-killing crossbar
// fault at every cycle offset across a window, so some run necessarily
// catches a head flit mid-switch-allocation (and others catch body flits
// in the pipe, tails at the crossbar, fresh arrivals, and empty routers).
// Every run must drain with the per-cycle conservation audit green, and
// its drop ledger must agree with the broken-packet accounting.
func TestFaultSweepHitsEveryPipelineStage(t *testing.T) {
	for offset := int64(0); offset < 24; offset++ {
		cycle := 100 + offset
		events := []fault.Event{{
			Cycle: cycle,
			Fault: fault.Fault{Node: 5, Component: fault.Crossbar, Module: fault.RowModule},
		}}
		res := New(edgeConfig(11, events)).Run()
		if res.Watchdog != nil {
			t.Fatalf("offset %d: run wedged:\n%s", offset, res.Watchdog)
		}
		if res.Saturated {
			t.Fatalf("offset %d: run hit MaxCycles", offset)
		}
		if dropSum(res.Drops) != res.DroppedFlits {
			t.Fatalf("offset %d: drop breakdown %+v does not sum to DroppedFlits %d",
				offset, res.Drops, res.DroppedFlits)
		}
		// A broken packet lost at least one flit and at most all of them;
		// outside those bounds the ledger double- or under-counted.
		if res.BrokenPackets > res.DroppedFlits {
			t.Fatalf("offset %d: %d broken packets but only %d dropped flits",
				offset, res.BrokenPackets, res.DroppedFlits)
		}
		if res.DroppedFlits > 4*res.BrokenPackets {
			t.Fatalf("offset %d: %d dropped flits exceed 4 flits per broken packet (%d broken)",
				offset, res.DroppedFlits, res.BrokenPackets)
		}
	}
}

// TestFaultStrikesSameModuleTwice lands a second crossbar fault on a
// module already dead. The second installation must be idempotent: no
// resident is condemned twice (the per-cycle audit panics on a double
// drop), the run still drains, and the second fault's attribution row
// shows it caused no new unroutable wave beyond ordinary traffic decay.
func TestFaultStrikesSameModuleTwice(t *testing.T) {
	strike := fault.Fault{Node: 5, Component: fault.Crossbar, Module: fault.RowModule}
	events := []fault.Event{
		{Cycle: 110, Fault: strike},
		{Cycle: 174, Fault: strike},
	}
	res := New(edgeConfig(3, events)).Run()
	if res.Watchdog != nil {
		t.Fatalf("run wedged after double strike:\n%s", res.Watchdog)
	}
	if len(res.FaultLog) != 2 {
		t.Fatalf("FaultLog has %d records, want 2", len(res.FaultLog))
	}
	if dropSum(res.Drops) != res.DroppedFlits {
		t.Fatalf("drop breakdown %+v does not sum to DroppedFlits %d", res.Drops, res.DroppedFlits)
	}

	// The single-strike run is the control: the redundant second fault must
	// not change what traffic is lost (same seed, same workload, and the
	// struck module was already dead).
	ctrl := New(edgeConfig(3, events[:1])).Run()
	if ctrl.Watchdog != nil {
		t.Fatalf("control run wedged:\n%s", ctrl.Watchdog)
	}
	if res.DroppedFlits != ctrl.DroppedFlits || res.BrokenPackets != ctrl.BrokenPackets {
		t.Fatalf("redundant second strike changed the ledger: dropped %d vs %d, broken %d vs %d",
			res.DroppedFlits, ctrl.DroppedFlits, res.BrokenPackets, ctrl.BrokenPackets)
	}
}

// TestFaultStrikesBothModules kills the row module and then the column
// module of the same router — the full-router-death path: residents of
// both modules drain, upstream neighbors stop routing into the dead node,
// and the inactivity rule must not be needed (the network still drains
// because drops are progress for the conservation ledger).
func TestFaultStrikesBothModules(t *testing.T) {
	events := []fault.Event{
		{Cycle: 110, Fault: fault.Fault{Node: 5, Component: fault.Crossbar, Module: fault.RowModule}},
		{Cycle: 150, Fault: fault.Fault{Node: 5, Component: fault.VA, Module: fault.ColumnModule}},
	}
	res := New(edgeConfig(7, events)).Run()
	if res.Saturated {
		t.Fatal("run hit MaxCycles")
	}
	if dropSum(res.Drops) != res.DroppedFlits {
		t.Fatalf("drop breakdown %+v does not sum to DroppedFlits %d", res.Drops, res.DroppedFlits)
	}
	if res.Drops.DeadDrain == 0 && res.Drops.InFlight == 0 {
		t.Fatal("killing both modules of a loaded router dropped nothing")
	}
	// With node 5 fully dead, sources keep drawing destinations behind it;
	// those packets must be classified unroutable at the source, not lost
	// silently.
	if res.Drops.Unroutable == 0 {
		t.Fatal("no unroutable-at-source drops despite a fully dead router")
	}
}
