package roco

import (
	"strings"
	"testing"
)

// runDetailed runs cfg to termination on a Sim and returns its Detailed
// view.
func runDetailed(cfg Config) Detailed {
	sim := NewSim(cfg)
	sim.Run()
	return sim.Detailed()
}

// runTraced runs cfg to termination on a Sim sampling about n packet
// journeys.
func runTraced(cfg Config, n int) (Result, []PacketTrace) {
	sim := NewSim(cfg)
	sim.TracePackets(n)
	return sim.Run(), sim.Traces()
}

func TestRunDetailedUtilization(t *testing.T) {
	cfg := quickConfig(RoCo, XY, Uniform, 0.25)
	d := runDetailed(cfg)
	if d.Completion != 1 {
		t.Fatalf("completion %.3f", d.Completion)
	}
	util := d.LinkUtilization()
	if len(util) != 64 {
		t.Fatalf("got %d nodes", len(util))
	}
	// Under uniform XY the mesh center carries more traffic than the
	// corners — the defining spatial signature.
	center := (util[27] + util[28] + util[35] + util[36]) / 4
	corners := (util[0] + util[7] + util[56] + util[63]) / 4
	if center <= corners {
		t.Errorf("center utilization %.3f should exceed corners %.3f", center, corners)
	}
	for id, u := range util {
		if u < 0 || u > 1.0 {
			t.Errorf("node %d utilization %.3f out of [0,1]", id, u)
		}
	}
}

func TestRunDetailedMatchesRun(t *testing.T) {
	cfg := quickConfig(Generic, XY, Uniform, 0.2)
	a := Run(cfg)
	b := runDetailed(cfg)
	if a.AvgLatency != b.AvgLatency || a.EnergyPerPacketNJ != b.EnergyPerPacketNJ {
		t.Error("Detailed must reproduce Run's measurements exactly")
	}
}

func TestRenderHeatmap(t *testing.T) {
	d := runDetailed(quickConfig(RoCo, XY, Uniform, 0.2))
	var sb strings.Builder
	d.RenderHeatmap(&sb)
	out := sb.String()
	if !strings.Contains(out, "Link utilization") || len(strings.Split(out, "\n")) < 9 {
		t.Errorf("heatmap rendering wrong:\n%s", out)
	}
}

func TestDetailedDropsUnderFaults(t *testing.T) {
	cfg := quickConfig(Generic, XY, Uniform, 0.25)
	cfg.Faults = []Fault{{Node: 27, Component: Crossbar}}
	cfg.InactivityLimit = 1500
	d := runDetailed(cfg)
	var dropped int64
	for _, n := range d.Nodes {
		dropped += n.Dropped
	}
	if dropped == 0 {
		t.Error("a dead node should force some discards")
	}
	if d.Nodes[27].Delivered != 0 {
		t.Error("a dead node must not deliver anything")
	}
}

func TestReplicate(t *testing.T) {
	cfg := quickConfig(RoCo, XY, Uniform, 0.2)
	cfg.MeasurePackets = 2000
	rep := Replicate(cfg, 4)
	if rep.Runs != 4 {
		t.Fatalf("runs = %d", rep.Runs)
	}
	if rep.AvgLatency.Mean <= 0 || rep.AvgLatency.HalfCI95 < 0 {
		t.Fatalf("bad latency interval %+v", rep.AvgLatency)
	}
	if rep.Completion.Mean != 1 {
		t.Errorf("completion mean %.3f", rep.Completion.Mean)
	}
	// Different seeds must differ (CI > 0 except in pathological cases).
	if rep.AvgLatency.HalfCI95 == 0 {
		t.Error("replicated runs were identical; seed plumbing broken")
	}
	if rep.AvgLatency.String() == "" {
		t.Error("interval string empty")
	}
}

func TestIntervalSingleRun(t *testing.T) {
	iv := interval([]float64{5})
	if iv.Mean != 5 || iv.HalfCI95 != 0 {
		t.Errorf("single-sample interval %+v", iv)
	}
}

func TestEnergyBreakdownTotals(t *testing.T) {
	d := runDetailed(quickConfig(RoCo, XY, Uniform, 0.2))
	e := d.Energy
	total := e.BuffersNJ + e.CrossbarNJ + e.LinksNJ + e.ArbitrationNJ + e.RoutingNJ + e.EjectionNJ + e.LeakageNJ
	want := d.DynamicNJ + d.LeakageNJ
	if diff := total - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("breakdown total %.6f != result total %.6f", total, want)
	}
	if e.BuffersNJ <= 0 || e.CrossbarNJ <= 0 || e.LeakageNJ <= 0 {
		t.Errorf("breakdown groups should be positive: %+v", e)
	}
	// The RoCo structural signature: buffer energy dominates its small
	// crossbars by a wide margin.
	if e.CrossbarNJ >= e.BuffersNJ {
		t.Errorf("RoCo crossbar energy %.1f should be far below buffer energy %.1f", e.CrossbarNJ, e.BuffersNJ)
	}
}
