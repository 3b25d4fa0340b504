package roco

import (
	"reflect"
	"strings"
	"testing"
)

// multichipConfig is a small chiplet run: a 2x2 grid of 4x4-node chips
// (the flat 8x8 mesh re-tiled) with serialized boundary links.
func multichipConfig(k RouterKind, alg Algorithm, rate float64) Config {
	cfg := quickConfig(k, alg, Uniform, rate)
	cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH = 2, 2, 4, 4
	cfg.D2DClass = D2DSerial
	return cfg
}

// TestMultichipOneChipEqualsFlat pins the degeneracy contract: a
// 1x1-chiplet multichip topology IS the flat topology, bit for bit —
// including with non-trivial D2D timing configured (there are no
// boundary links to apply it to).
func TestMultichipOneChipEqualsFlat(t *testing.T) {
	flat := Run(quickConfig(RoCo, Adaptive, Uniform, 0.2))
	cfg := quickConfig(RoCo, Adaptive, Uniform, 0.2)
	cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH = 1, 1, 8, 8
	cfg.D2DClass = D2DSerial
	if got := Run(cfg); !reflect.DeepEqual(got, flat) {
		t.Fatalf("1x1-chiplet mesh diverged from the flat mesh\n got: %v\nwant: %v", got, flat)
	}

	flatTorus := Run(torusConfig(0.15))
	tcfg := torusConfig(0.15)
	tcfg.ChipsX, tcfg.ChipsY, tcfg.ChipW, tcfg.ChipH = 1, 1, 8, 8
	tcfg.D2DClass = D2DSerial
	if got := Run(tcfg); !reflect.DeepEqual(got, flatTorus) {
		t.Fatalf("1x1-chiplet torus diverged from the flat torus\n got: %v\nwant: %v", got, flatTorus)
	}
}

// TestMultichipKernelIdentity: the gated kernel, sequential and sharded,
// produces results bit-identical to the reference kernel on chiplet
// topologies with multi-cycle serialized boundary links and a runtime
// die-to-die interface fault under Reliable: a multi-chip mesh, and a
// multi-chip torus faulted on its wrap seam.
func TestMultichipKernelIdentity(t *testing.T) {
	faulted := func(k RouterKind, torus bool, side Side) Config {
		cfg := multichipConfig(k, XY, 0.2)
		cfg.Torus = torus
		cfg.Reliable = true
		cfg.AuditEvery = 32
		cfg.FaultSchedule = []TimedFault{
			{Cycle: 1500, Fault: Fault{Node: 0, Component: D2DInterface, Side: side}},
		}
		return cfg
	}
	variants := map[string]func(*Config){
		"gated":     func(*Config) {},
		"sharded":   func(c *Config) { c.Shards = 4 },
		"sharded-3": func(c *Config) { c.Shards = 3 },
	}
	for _, tc := range []struct {
		name string
		base Config
	}{
		{"mesh", faulted(RoCo, false, SideEast)},
		{"torus", faulted(Generic, true, SideWest)},
	} {
		ref := tc.base
		ref.ReferenceKernel = true
		want := Run(ref)
		if want.D2DFlits == 0 {
			t.Fatalf("%s: no flits crossed the boundary links; test is vacuous", tc.name)
		}
		if len(want.FaultEvents) != 1 {
			t.Fatalf("%s: expected one fault event, got %d", tc.name, len(want.FaultEvents))
		}
		for name, tweak := range variants {
			cfg := tc.base
			tweak(&cfg)
			if got := Run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s kernel diverged from reference on multichip\n got: %v\nwant: %v", tc.name, name, got, want)
			}
		}
	}
}

// TestMultichipD2DEnergyPremium: boundary crossings cost extra energy,
// serial lanes more than parallel, and the premium is exactly the flit
// count times the per-flit difference (already folded into DynamicNJ).
func TestMultichipD2DEnergyPremium(t *testing.T) {
	par := multichipConfig(RoCo, XY, 0.2)
	par.D2DClass = D2DParallel
	ser := multichipConfig(RoCo, XY, 0.2)

	rp, rs := Run(par), Run(ser)
	if rp.D2DFlits == 0 || rs.D2DFlits == 0 {
		t.Fatal("no boundary traffic measured")
	}
	if rp.D2DEnergyNJ <= 0 || rs.D2DEnergyNJ <= 0 {
		t.Fatalf("D2D premium not accounted: parallel %v, serial %v", rp.D2DEnergyNJ, rs.D2DEnergyNJ)
	}
	// Same traffic per flit, serial lane strictly pricier.
	if rs.D2DEnergyNJ/float64(rs.D2DFlits) <= rp.D2DEnergyNJ/float64(rp.D2DFlits) {
		t.Errorf("serial per-flit premium %v should exceed parallel %v",
			rs.D2DEnergyNJ/float64(rs.D2DFlits), rp.D2DEnergyNJ/float64(rp.D2DFlits))
	}
	// The flat mesh has no boundary links and no premium.
	if flat := Run(quickConfig(RoCo, XY, Uniform, 0.2)); flat.D2DFlits != 0 || flat.D2DEnergyNJ != 0 {
		t.Errorf("flat mesh reports D2D activity: %d flits, %v nJ", flat.D2DFlits, flat.D2DEnergyNJ)
	}
}

// TestD2DInterfaceFaultExactGiveUps: under Reliable with XY routing, a
// severed boundary interface makes exactly the flows whose deterministic
// route crosses the cut unreachable — every give-up is one of them, is
// reasoned "unreachable", and the residual loss matches.
func TestD2DInterfaceFaultExactGiveUps(t *testing.T) {
	cfg := multichipConfig(RoCo, XY, 0.2)
	cfg.Reliable = true
	cfg.FaultSchedule = []TimedFault{
		// Chip (0,0)'s east interface: the links between columns 3 and 4 on
		// rows 0..3, both directions.
		{Cycle: 1000, Fault: Fault{Node: 0, Component: D2DInterface, Side: SideEast}},
	}
	res := Run(cfg)
	if len(res.GiveUps) == 0 {
		t.Fatal("no give-ups recorded; fault installed too late or not at all")
	}
	crossesCut := func(src, dst int) bool {
		sx, sy := src%8, src/8
		dx := dst % 8
		// XY routing traverses the X dimension along the source row first;
		// the severed column-3/4 crossings are on rows 0..3.
		return sy <= 3 && ((sx <= 3 && dx >= 4) || (sx >= 4 && dx <= 3))
	}
	for _, g := range res.GiveUps {
		if g.Reason != "unreachable" {
			t.Errorf("give-up %d->%d reasoned %q, want unreachable", g.Src, g.Dst, g.Reason)
		}
		if !crossesCut(g.Src, g.Dst) {
			t.Errorf("give-up %d->%d does not cross the severed interface", g.Src, g.Dst)
		}
	}
	if res.ResidualLoss != int64(len(res.GiveUps)) {
		t.Errorf("residual loss %d != %d give-ups (drained run)", res.ResidualLoss, len(res.GiveUps))
	}
	if len(res.FaultEvents) != 1 {
		t.Fatalf("expected one fault event, got %d", len(res.FaultEvents))
	}
	if ev := res.FaultEvents[0]; ev.FloorGoodput <= 0 {
		t.Errorf("post-fault goodput floor %v; expected graceful degradation, not collapse", ev.FloorGoodput)
	}
}

// TestMultichipStaticInterfaceFault: a statically severed interface is
// live from cycle 0 — unroutable flows are given up, the rest deliver.
func TestMultichipStaticInterfaceFault(t *testing.T) {
	cfg := multichipConfig(RoCo, XY, 0.15)
	cfg.Reliable = true
	cfg.Faults = []Fault{{Node: 12, Component: D2DInterface, Side: SideNorth}}
	res := Run(cfg)
	if res.DeliveredPackets == 0 {
		t.Fatal("nothing delivered around a single severed interface")
	}
	for _, g := range res.GiveUps {
		if g.Reason != "unreachable" {
			t.Errorf("give-up %d->%d reasoned %q, want unreachable", g.Src, g.Dst, g.Reason)
		}
	}
	if res.Completion+float64(len(res.GiveUps))/float64(res.GeneratedPackets) < 0.999 {
		t.Errorf("packets neither delivered nor given up: completion %v, %d give-ups",
			res.Completion, len(res.GiveUps))
	}
}

// TestMultichipSnapshotRoundTrip: checkpoints on a chiplet topology with
// in-flight boundary traffic are kernel-canonical — a run snapshotted
// periodically matches the straight run, and a snapshot taken under one
// kernel resumes bit-identically under the others.
func TestMultichipSnapshotRoundTrip(t *testing.T) {
	cfg := multichipConfig(RoCo, XY, 0.2)
	cfg.Reliable = true
	cfg.TelemetryEvery = 64
	cfg.AuditEvery = 64
	cfg.FaultSchedule = []TimedFault{
		{Cycle: 600, Fault: Fault{Node: 0, Component: D2DInterface, Side: SideSouth}},
	}
	// Node 0 has no south interface -- chip (0,0) is on the global edge.
	if err := cfg.Validate(); err == nil {
		t.Fatal("edge interface fault passed validation")
	}
	cfg.FaultSchedule[0].Fault.Side = SideNorth
	want := Run(cfg)

	dir := t.TempDir()
	got, interrupted, err := NewSim(cfg).RunCheckpointed(CheckpointOptions{Every: 40, Dir: dir})
	if err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	if interrupted {
		t.Fatal("unexpected interruption")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("periodic snapshots perturbed the multichip run\n got: %v\nwant: %v", got, want)
	}

	// Resume the latest snapshot under each other kernel.
	for _, variant := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"reference", func(c *Config) { c.ReferenceKernel = true }},
		{"sharded", func(c *Config) { c.Shards = 4 }},
	} {
		rcfg := cfg
		variant.tweak(&rcfg)
		sim, err := ResumeLatest(dir, rcfg)
		if err != nil {
			t.Fatalf("%s resume: %v", variant.name, err)
		}
		if res := sim.Run(); !reflect.DeepEqual(res, want) {
			t.Errorf("%s kernel resume diverged on multichip\n got: %v\nwant: %v", variant.name, res, want)
		}
	}
}

// TestMultichipBigGridKernels is the scale contract: a >=4096-node
// multichip topology runs under every kernel bit-identically, with a
// cross-kernel resumable checkpoint.
func TestMultichipBigGridKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node grid in -short mode")
	}
	cfg := Config{
		Router: RoCo, Algorithm: XY, Traffic: Uniform,
		ChipsX: 4, ChipsY: 4, ChipW: 16, ChipH: 16, // 64x64 = 4096 nodes
		D2DClass:      D2DParallel,
		InjectionRate: 0.05,
		WarmupPackets: 200, MeasurePackets: 3000,
		Seed: 11,
	}
	ref := cfg
	ref.ReferenceKernel = true
	want := Run(ref)
	if want.D2DFlits == 0 {
		t.Fatal("no boundary traffic on the big grid")
	}

	sharded := cfg
	sharded.Shards = 8
	if got := Run(sharded); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded gated kernel diverged on the 4096-node grid\n got: %v\nwant: %v", got, want)
	}

	// Checkpoint under the sequential gated kernel, resume sharded.
	dir := t.TempDir()
	if _, _, err := NewSim(cfg).RunCheckpointed(CheckpointOptions{Every: 150, Dir: dir}); err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	sim, err := ResumeLatest(dir, sharded)
	if err != nil {
		t.Fatalf("ResumeLatest: %v", err)
	}
	if res := sim.Run(); !reflect.DeepEqual(res, want) {
		t.Fatalf("cross-kernel resume diverged on the 4096-node grid\n got: %v\nwant: %v", res, want)
	}
}

// TestMultichipValidation exercises the new Validate rules.
func TestMultichipValidation(t *testing.T) {
	ok := multichipConfig(RoCo, XY, 0.1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid multichip config rejected: %v", err)
	}
	bad := []struct {
		name  string
		tweak func(*Config)
	}{
		{"partial grid", func(c *Config) { c.ChipH = 0 }},
		{"mismatched dims", func(c *Config) { c.Width, c.Height = 9, 9 }},
		{"negative d2d timing", func(c *Config) { c.D2DLatency = -1 }},
		{"unknown d2d class", func(c *Config) { c.D2DClass = 7 }},
		{"d2d fault off-grid side", func(c *Config) {
			c.Faults = []Fault{{Node: 0, Component: D2DInterface, Side: SideWest}}
		}},
		{"d2d fault bad side", func(c *Config) {
			c.Faults = []Fault{{Node: 0, Component: D2DInterface, Side: 9}}
		}},
	}
	for _, tc := range bad {
		cfg := multichipConfig(RoCo, XY, 0.1)
		tc.tweak(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	// D2D knobs without a chiplet grid.
	flat := quickConfig(RoCo, XY, Uniform, 0.1)
	flat.D2DGap = 4
	if err := flat.Validate(); err == nil || !strings.Contains(err.Error(), "chiplet") {
		t.Errorf("flat config with D2D knobs accepted (err %v)", err)
	}
	// D2D fault on a flat mesh.
	flat = quickConfig(RoCo, XY, Uniform, 0.1)
	flat.Faults = []Fault{{Node: 0, Component: D2DInterface, Side: SideEast}}
	if err := flat.Validate(); err == nil {
		t.Error("flat config with a D2DInterface fault accepted")
	}
}

// TestMultichipHeatmapSeparators: the spatial views rebuild the chiplet
// topology and draw die boundaries.
func TestMultichipHeatmapSeparators(t *testing.T) {
	cfg := multichipConfig(RoCo, XY, 0.15)
	cfg.WarmupPackets, cfg.MeasurePackets = 200, 1500
	d := runDetailed(cfg)
	if d.ChipsX != 2 || d.ChipW != 4 {
		t.Fatalf("Detailed lost the chiplet grid: %+v", d)
	}
	util := d.LinkUtilization()
	if len(util) != 64 {
		t.Fatalf("utilization over %d nodes, want 64", len(util))
	}
	var sb strings.Builder
	d.RenderHeatmap(&sb)
	out := sb.String()
	if !strings.Contains(out, "2x2 chiplets of 4x4") {
		t.Errorf("heatmap title lacks the chiplet shape:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("heatmap lacks die-boundary separators:\n%s", out)
	}
}

// TestD2DInterfaceFaultClaimPurge pins the severed-interface claim purge
// across several seeds. When the fault strikes with a head flit still in
// flight across the boundary, the head is dropped at the dead interface
// but the claim it held on a downstream channel would — without the purge
// — never be released: the latched feeder makes the channel permanently
// unclaimable, and every turn class mapped to it (both TurnXY channels,
// under XY) wedges the seam-adjacent column forever. Seed 1 reproduces
// the wedge without the purge; the run must instead drain with closed
// accounting (every generated packet delivered or given up).
func TestD2DInterfaceFaultClaimPurge(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := multichipConfig(RoCo, XY, 0.2)
		cfg.Reliable = true
		cfg.Seed = seed
		cfg.FaultSchedule = []TimedFault{
			{Cycle: 1000, Fault: Fault{Node: 0, Component: D2DInterface, Side: SideEast}},
		}
		res := Run(cfg)
		if res.ResidualLoss != int64(len(res.GiveUps)) {
			t.Errorf("seed %d: residual loss %d != %d give-ups (leaked state)",
				seed, res.ResidualLoss, len(res.GiveUps))
		}
		if got := res.Completion + float64(len(res.GiveUps))/float64(res.GeneratedPackets); got < 0.999 {
			t.Errorf("seed %d: packets neither delivered nor given up: completion %v, %d give-ups",
				seed, res.Completion, len(res.GiveUps))
		}
	}
}
