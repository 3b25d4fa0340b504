package network

import (
	"testing"

	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// TestAllRoutersAllTrafficDrain sweeps the full (router x algorithm x
// traffic) matrix at low load; every combination must deliver everything.
func TestAllRoutersAllTrafficDrain(t *testing.T) {
	patterns := []traffic.Pattern{traffic.Uniform, traffic.Transpose, traffic.SelfSimilar, traffic.MPEG2, traffic.BitComplement}
	for name, build := range allBuilders {
		for _, alg := range routing.Algorithms {
			for _, p := range patterns {
				cfg := smokeConfig(alg, p, 0.08, 97)
				cfg.Build = build
				cfg.MeasurePackets = 1500
				cfg.MaxCycles = 400_000
				res := New(cfg).Run()
				if res.Summary.Completion != 1 {
					t.Errorf("%s/%s/%s: completion %.3f", name, alg, p, res.Summary.Completion)
				}
			}
		}
	}
}

// TestEightByEightMediumLoad exercises the paper's mesh size end to end.
func TestEightByEightMediumLoad(t *testing.T) {
	for name, build := range allBuilders {
		cfg := Config{
			Topo:          topology.NewMesh(8, 8),
			Algorithm:     routing.XY,
			Build:         build,
			Traffic:       traffic.Config{Pattern: traffic.Uniform, Rate: 0.25, FlitsPerPacket: 4},
			WarmupPackets: 500, MeasurePackets: 6000,
			Seed: 12,
		}
		res := New(cfg).Run()
		if res.Summary.Completion != 1 {
			t.Errorf("%s: completion %.3f at 25%% load on 8x8", name, res.Summary.Completion)
		}
		if res.Summary.AvgLatency < 10 || res.Summary.AvgLatency > 80 {
			t.Errorf("%s: implausible 8x8 latency %.2f", name, res.Summary.AvgLatency)
		}
	}
}

// TestZeroLoadLatency: at vanishing load, per-hop cost is ~2 cycles plus
// serialization; routers with early ejection save 2 cycles at the
// destination.
func TestZeroLoadLatency(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0.01, 5)
	cfg.MeasurePackets = 500
	gen := New(cfg).Run().Summary.AvgLatency

	cfgR := rocoConfig(routing.XY, traffic.Uniform, 0.01, 5)
	cfgR.MeasurePackets = 500
	rc := New(cfgR).Run().Summary.AvgLatency

	diff := gen - rc
	if diff < 1 || diff > 3.5 {
		t.Errorf("early ejection should save ~2 cycles at zero load; generic=%.2f roco=%.2f", gen, rc)
	}
}

// TestEnergyActivityConservation: flit conservation invariants over the
// measured window — every delivered flit crossed (hops) links, buffer
// reads never exceed writes.
func TestEnergyActivityConservation(t *testing.T) {
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0.15, 42)
	res := New(cfg).Run()
	a := res.Activity
	// Reads may slightly exceed writes: the measurement window opens at the
	// warm-up boundary, and flits buffered just before it are read just
	// after. The slack is bounded by the network's in-flight population.
	if a.BufferReads > a.BufferWrites+60*16 {
		t.Errorf("reads %d exceed writes %d beyond in-flight slack", a.BufferReads, a.BufferWrites)
	}
	if a.CrossbarTraversals != a.BufferReads {
		t.Errorf("every buffer read must cross the switch: reads=%d xbar=%d", a.BufferReads, a.CrossbarTraversals)
	}
	if a.SAGrants != a.CrossbarTraversals {
		t.Errorf("switch grants %d != traversals %d", a.SAGrants, a.CrossbarTraversals)
	}
	if a.VAGrants > a.VAOps {
		t.Error("more VA grants than operations")
	}
}

// TestCustomTopologySizes: the simulator is not hard-wired to 8x8.
func TestCustomTopologySizes(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 5}, {6, 4}} {
		cfg := Config{
			Topo:          topology.NewMesh(dims[0], dims[1]),
			Algorithm:     routing.XY,
			Build:         rocoBuilder,
			Traffic:       traffic.Config{Pattern: traffic.Uniform, Rate: 0.1, FlitsPerPacket: 4},
			WarmupPackets: 100, MeasurePackets: 1000,
			Seed: 3,
		}
		res := New(cfg).Run()
		if res.Summary.Completion != 1 {
			t.Errorf("%dx%d: completion %.3f", dims[0], dims[1], res.Summary.Completion)
		}
	}
}

// TestSingleFlitPackets: HeadTail packets flow through all machinery.
func TestSingleFlitPackets(t *testing.T) {
	for name, build := range allBuilders {
		cfg := smokeConfig(routing.XY, traffic.Uniform, 0.10, 8)
		cfg.Build = build
		cfg.Traffic.FlitsPerPacket = 1
		cfg.MeasurePackets = 2000
		res := New(cfg).Run()
		if res.Summary.Completion != 1 {
			t.Errorf("%s: single-flit completion %.3f", name, res.Summary.Completion)
		}
	}
}

// TestLongPackets: 8-flit packets stress wormhole spanning multiple
// routers.
func TestLongPackets(t *testing.T) {
	for name, build := range allBuilders {
		cfg := smokeConfig(routing.Adaptive, traffic.Uniform, 0.16, 9)
		cfg.Build = build
		cfg.Traffic.FlitsPerPacket = 8
		cfg.MeasurePackets = 2000
		res := New(cfg).Run()
		if res.Summary.Completion != 1 {
			t.Errorf("%s: 8-flit completion %.3f", name, res.Summary.Completion)
		}
	}
}

// TestRunCyclesFixedHorizon runs a fixed horizon: RunHooked with a hook
// that stops at a cycle count.
func TestRunCyclesFixedHorizon(t *testing.T) {
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0.2, 10)
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1 << 30 // open-ended generation
	n := New(cfg)
	res, stopped := n.RunHooked(func() bool { return n.Cycle() >= 2000 })
	if !stopped || res.TotalCycles != 2000 {
		t.Errorf("fixed horizon ran %d cycles (stopped by the hook: %v)", res.TotalCycles, stopped)
	}
	if res.Summary.DeliveredPkts == 0 {
		t.Error("fixed-horizon run delivered nothing")
	}
}

// TestHotspotBackpressure: the network must survive (not panic, not lose
// flits) when a large share of traffic converges on one node.
func TestHotspotBackpressure(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Hotspot, 0.2, 44)
	cfg.Traffic.HotspotNode = 5
	cfg.Traffic.HotspotFraction = 0.5
	cfg.MeasurePackets = 3000
	cfg.MaxCycles = 300_000
	res := New(cfg).Run()
	if res.Summary.Completion != 1 && !res.Saturated {
		t.Errorf("hotspot run lost traffic without saturating: %.3f", res.Summary.Completion)
	}
}

// TestMaxCyclesCap: a run past saturation must stop at MaxCycles and
// report it.
func TestMaxCyclesCap(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0.9, 51) // far past saturation
	cfg.MeasurePackets = 1 << 30
	cfg.MaxCycles = 3000
	res := New(cfg).Run()
	if !res.Saturated {
		t.Error("run past saturation should report Saturated")
	}
	if res.TotalCycles != 3000 {
		t.Errorf("ran %d cycles, want exactly MaxCycles", res.TotalCycles)
	}
}

// TestQuiescentAfterDrain: a drained network holds no flits anywhere.
func TestQuiescentAfterDrain(t *testing.T) {
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0.1, 52)
	cfg.MeasurePackets = 500
	n := New(cfg)
	n.Run()
	for id, r := range n.routers {
		if n := r.BufferedFlits(); n != 0 {
			t.Errorf("router %d buffers %d flits after a drained run", id, n)
		}
	}
}

// TestZeroRateRun: an idle network terminates immediately with vacuous
// completion.
func TestZeroRateRun(t *testing.T) {
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0, 53)
	cfg.MeasurePackets = 1
	cfg.MaxCycles = 2000
	res := New(cfg).Run()
	if res.Summary.Completion != 1 {
		t.Errorf("idle completion = %v, want vacuous 1", res.Summary.Completion)
	}
}

// TestWarmupLargerThanMeasure: the measurement window still works when the
// warm-up dominates.
func TestWarmupLargerThanMeasure(t *testing.T) {
	cfg := rocoConfig(routing.XY, traffic.Uniform, 0.1, 54)
	cfg.WarmupPackets = 2000
	cfg.MeasurePackets = 100
	res := New(cfg).Run()
	if res.Summary.GeneratedPkts != 100 || res.Summary.Completion != 1 {
		t.Errorf("measured %d/%v, want 100 generated at completion 1",
			res.Summary.GeneratedPkts, res.Summary.Completion)
	}
}
