package roco

import (
	"math"
	"strings"
	"testing"

	"github.com/rocosim/roco/internal/traffic"
)

func quickConfig(k RouterKind, alg Algorithm, tp TrafficPattern, rate float64) Config {
	return Config{
		Router: k, Algorithm: alg, Traffic: tp,
		InjectionRate: rate,
		WarmupPackets: 500, MeasurePackets: 4000,
		Seed: 7,
	}
}

func TestRunDefaults(t *testing.T) {
	res := Run(quickConfig(RoCo, XY, Uniform, 0.15))
	if res.Completion != 1 {
		t.Fatalf("completion = %v", res.Completion)
	}
	if res.AvgLatency <= 0 || res.EnergyPerPacketNJ <= 0 || res.PEF <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.PEF != res.AvgLatency*res.EnergyPerPacketNJ/res.Completion {
		t.Error("PEF must equal EDP/completion")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(quickConfig(RoCo, Adaptive, Uniform, 0.2))
	b := Run(quickConfig(RoCo, Adaptive, Uniform, 0.2))
	if a.AvgLatency != b.AvgLatency || a.Cycles != b.Cycles || a.EnergyPerPacketNJ != b.EnergyPerPacketNJ {
		t.Error("same config+seed must reproduce exactly")
	}
}

func TestHeadlineLatencyOrdering(t *testing.T) {
	// The paper's core performance claim at moderate load.
	gen := Run(quickConfig(Generic, XY, Uniform, 0.25))
	rc := Run(quickConfig(RoCo, XY, Uniform, 0.25))
	if rc.AvgLatency >= gen.AvgLatency {
		t.Errorf("RoCo %.2f should beat generic %.2f at 25%% load", rc.AvgLatency, gen.AvgLatency)
	}
}

func TestHeadlineEnergyOrdering(t *testing.T) {
	// Figure 13: RoCo ~20% below generic, ~6% below path-sensitive.
	gen := Run(quickConfig(Generic, XY, Uniform, 0.30))
	ps := Run(quickConfig(PathSensitive, XY, Uniform, 0.30))
	rc := Run(quickConfig(RoCo, XY, Uniform, 0.30))
	gGap := 1 - rc.EnergyPerPacketNJ/gen.EnergyPerPacketNJ
	pGap := 1 - rc.EnergyPerPacketNJ/ps.EnergyPerPacketNJ
	t.Logf("energy: gen=%.3f ps=%.3f roco=%.3f (gaps %.1f%%, %.1f%%)",
		gen.EnergyPerPacketNJ, ps.EnergyPerPacketNJ, rc.EnergyPerPacketNJ, gGap*100, pGap*100)
	if gGap < 0.10 || gGap > 0.35 {
		t.Errorf("RoCo-vs-generic energy gap %.1f%%, want ~20%%", gGap*100)
	}
	if pGap < 0.02 || pGap > 0.15 {
		t.Errorf("RoCo-vs-path-sensitive energy gap %.1f%%, want ~6%%", pGap*100)
	}
}

func TestTable2ExactValues(t *testing.T) {
	res := Table2(200000, 1)
	if math.Abs(res.Generic-0.043) > 0.001 {
		t.Errorf("generic = %v", res.Generic)
	}
	if res.PathSensitive != 0.125 || res.RoCo != 0.25 {
		t.Error("table 2 analytic values wrong")
	}
	if math.Abs(res.GenericMC-res.Generic) > 0.005 ||
		math.Abs(res.PathSensitiveMC-0.125) > 0.005 ||
		math.Abs(res.MC-0.25) > 0.005 {
		t.Error("Monte-Carlo estimates diverge from analytic values")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "0.250") {
		t.Error("table 2 rendering missing values")
	}
}

func TestTable1Rendering(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	out := sb.String()
	for _, want := range []string{"dx tyx Injxy", "dy txy Injyx", "XY-YX", "Adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Rendering(t *testing.T) {
	var sb strings.Builder
	Table3(&sb)
	out := sb.String()
	for _, want := range []string{"Crossbar", "virtual queuing", "double routing", "router-centric"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestRandomFaultsReproducible(t *testing.T) {
	a := RandomFaults(CriticalFaults, 4, 8, 8, 5)
	b := RandomFaults(CriticalFaults, 4, 8, 8, 5)
	if len(a) != 4 {
		t.Fatalf("got %d faults", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault sets not reproducible")
		}
	}
}

func TestFaultedRunLosesTraffic(t *testing.T) {
	cfg := quickConfig(Generic, XY, Uniform, 0.30)
	cfg.Faults = []Fault{{Node: 27, Component: Crossbar}}
	cfg.InactivityLimit = 2000
	res := Run(cfg)
	if res.Completion >= 1 {
		t.Error("a dead central node must strand deterministic traffic")
	}
	if res.Completion < 0.3 {
		t.Errorf("completion %.3f implausibly low with packet discard in place", res.Completion)
	}
}

func TestLatencySweepShape(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 3000
	sweep := RunLatencySweep(opts, Uniform, XY, []float64{0.05, 0.20})
	for _, k := range RouterKinds {
		lat := sweep.Latency[k]
		if len(lat) != 2 || lat[0] <= 0 {
			t.Fatalf("%s: bad sweep %v", k, lat)
		}
		if lat[1] < lat[0] {
			t.Errorf("%s: latency should not fall with load (%v)", k, lat)
		}
	}
	var sb strings.Builder
	sweep.Render(&sb)
	if !strings.Contains(sb.String(), "RoCo") {
		t.Error("sweep rendering missing router names")
	}
}

func TestEnumStrings(t *testing.T) {
	if Generic.String() != "Generic VC Router" || RoCo.String() != "RoCo" {
		t.Error("router names wrong")
	}
	if XY.String() != "XY" || Adaptive.String() != "Adaptive" {
		t.Error("algorithm names wrong")
	}
	if Uniform.String() != "uniform" || SelfSimilar.String() != "self-similar" {
		t.Error("traffic names wrong")
	}
	if CriticalFaults.String() == NonCriticalFaults.String() {
		t.Error("fault class names must differ")
	}
	if Crossbar.String() != "Crossbar" {
		t.Error("component names wrong")
	}
}

func TestMirrorAblation(t *testing.T) {
	mirror := Run(quickConfig(RoCo, XY, Uniform, 0.30))
	cfg := quickConfig(RoCo, XY, Uniform, 0.30)
	cfg.DisableMirrorSA = true
	separable := Run(cfg)
	if separable.Completion != 1 {
		t.Fatalf("separable-SA ablation lost traffic: %.3f", separable.Completion)
	}
	t.Logf("mirror=%.2f separable=%.2f", mirror.AvgLatency, separable.AvgLatency)
	if separable.AvgLatency < mirror.AvgLatency*0.98 {
		t.Errorf("the mirror allocator should not lose to the separable stage (mirror=%.2f separable=%.2f)",
			mirror.AvgLatency, separable.AvgLatency)
	}
}

func TestResultString(t *testing.T) {
	if Run(quickConfig(RoCo, XY, Uniform, 0.1)).String() == "" {
		t.Error("empty result string")
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(RoCo, XY, Uniform, 0.3)
	if cfg.WarmupPackets != 20000 || cfg.MeasurePackets != 1000000 {
		t.Error("paper run lengths wrong")
	}
	if cfg.Width != 8 || cfg.Height != 8 || cfg.FlitsPerPacket != 4 {
		t.Error("paper mesh/packet shape wrong")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
}

// TestTrafficPatternValues pins the one mapping from the public traffic
// patterns to the simulator's: a value conversion, which both
// TrafficPattern.internal and rocotrace's generator mode use. Every
// pattern a -traffic token names must land on its namesake.
func TestTrafficPatternValues(t *testing.T) {
	want := map[TrafficPattern]traffic.Pattern{
		Uniform: traffic.Uniform, Transpose: traffic.Transpose, SelfSimilar: traffic.SelfSimilar,
		MPEG2: traffic.MPEG2, BitComplement: traffic.BitComplement, Hotspot: traffic.Hotspot,
	}
	if len(want) != len(trafficTokens) {
		t.Fatalf("%d patterns pinned, %d have tokens", len(want), len(trafficTokens))
	}
	for p := range trafficTokens {
		if got := traffic.Pattern(p); got != want[p] || p.internal() != want[p] {
			t.Errorf("%s (value %d) converts to %v, want %v", trafficTokens[p][0], int(p), got, want[p])
		}
	}
}
