package roco

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// goldenCase is one short 6x6 run whose Result and final snapshot are
// pinned by digest.
type goldenCase struct {
	name string
	cfg  Config
}

// goldenConfig is the base of every golden case: a short 6x6 run with the
// network auditor on every cycle.
func goldenConfig(k RouterKind, alg Algorithm, rate float64) Config {
	return Config{
		Width: 6, Height: 6,
		Router: k, Algorithm: alg, Traffic: Uniform,
		InjectionRate: rate,
		WarmupPackets: 100, MeasurePackets: 600,
		Seed:       11,
		AuditEvery: 1,
	}
}

// goldenCases covers every router kind under every routing algorithm it
// supports, runtime fault schedules of both classes (critical
// ones under reliable delivery), the torus, the mirror ablation, a
// serial-chiplet interface fault, a multi-chip torus with a fault on its
// wrap seam, and epoch telemetry.
func goldenCases() []goldenCase {
	var cs []goldenCase
	kinds := []RouterKind{Generic, PathSensitive, RoCo}
	for _, k := range kinds {
		for _, alg := range []Algorithm{XY, XYYX, Adaptive} {
			cs = append(cs, goldenCase{fmt.Sprintf("%v/%v", k, alg), goldenConfig(k, alg, 0.2)})
		}
	}
	cs = append(cs, goldenCase{"PDR/XY", goldenConfig(PDR, XY, 0.2)})
	for _, k := range append(kinds, PDR) {
		cfg := goldenConfig(k, XY, 0.15)
		cfg.FaultSchedule = PoissonFaultSchedule(CriticalFaults, 300, 1500, 6, 6, 5)
		cfg.Reliable = true
		cs = append(cs, goldenCase{fmt.Sprintf("%v/critical-reliable", k), cfg})

		cfg = goldenConfig(k, XY, 0.15)
		cfg.FaultSchedule = PoissonFaultSchedule(NonCriticalFaults, 300, 1500, 6, 6, 9)
		cs = append(cs, goldenCase{fmt.Sprintf("%v/noncritical", k), cfg})
	}
	torus := goldenConfig(Generic, XY, 0.15)
	torus.Torus = true
	cs = append(cs, goldenCase{"Generic/torus", torus})

	noMirror := goldenConfig(RoCo, XY, 0.2)
	noMirror.DisableMirrorSA = true
	cs = append(cs, goldenCase{"RoCo/no-mirror", noMirror})

	chiplet := goldenConfig(RoCo, XY, 0.15)
	chiplet.Width, chiplet.Height = 0, 0
	chiplet.ChipsX, chiplet.ChipsY, chiplet.ChipW, chiplet.ChipH = 2, 2, 3, 3
	chiplet.D2DClass = D2DSerial
	chiplet.Reliable = true
	chiplet.FaultSchedule = []TimedFault{{Cycle: 400, Fault: Fault{Node: 0, Component: D2DInterface, Side: SideEast}}}
	cs = append(cs, goldenCase{"RoCo/chiplet-d2d", chiplet})

	mcTorus := goldenConfig(Generic, XY, 0.15)
	mcTorus.Width, mcTorus.Height = 0, 0
	mcTorus.Torus = true
	mcTorus.ChipsX, mcTorus.ChipsY, mcTorus.ChipW, mcTorus.ChipH = 2, 2, 3, 3
	mcTorus.D2DClass = D2DSerial
	mcTorus.Reliable = true
	mcTorus.FaultSchedule = []TimedFault{{Cycle: 400, Fault: Fault{Node: 0, Component: D2DInterface, Side: SideWest}}}
	cs = append(cs, goldenCase{"Generic/multichip-torus", mcTorus})

	tele := goldenConfig(RoCo, Adaptive, 0.2)
	tele.TelemetryEvery = 100
	cs = append(cs, goldenCase{"RoCo/telemetry", tele})
	return cs
}

// goldenDigests holds the digest of every golden case, recorded before the
// routers were rebuilt on the shared chassis (the multi-chip torus before
// the topologies became one grid type). Never edit an entry to make the
// test pass: a mismatch means behaviour changed.
var goldenDigests = map[string]string{
	"Generic VC Router/XY":                "a18b83dacb69a7d6a1309b1ffa826dec77dc555ed0fcf68cc6bb4b0fbf296f48",
	"Generic VC Router/XY-YX":             "dd769ffb415449bf06c0585d2061d949c231af7dcb4d44eb12854bf32ac07d9b",
	"Generic VC Router/Adaptive":          "dfc027e4f644e59be8d3033681bd17427dd1bd210b42786102e750de2d68c2e5",
	"Path-Sensitive/XY":                   "aa7c0d519d275dcde950234f22e7bb828947c686785559f70e4b55fa8f42c760",
	"Path-Sensitive/XY-YX":                "96c329e28cd4a9303a503c8f1463b3674b4a97c0e5c7e954efcb6a98eb3d8157",
	"Path-Sensitive/Adaptive":             "6f352dfc4667c07c8a54a6c25ffc16f16488e3a338c7535179427e870d4c200d",
	"RoCo/XY":                             "5d0ad8151127923b9ac001286df8e56b3b55b0852664bfd8ec5bb3fde6230d95",
	"RoCo/XY-YX":                          "1d6b29a8825113aa65a8412790dc73d5e9deec7048e7cf10270d205ed90a8d7b",
	"RoCo/Adaptive":                       "9f1e1204b6b25ed024a6cfe0f0f9916c67fd9dd83db3a08c2e89fc663889314f",
	"PDR/XY":                              "5c87328dee79b077ab3ea71df4e8e4bcc97aafdc2e10dce1a40b609e0817f5a0",
	"Generic VC Router/critical-reliable": "a535c88504b2966ff73765bbf6fa3ed01d1ec2f3fc0b0367bd9b214a50e20d93",
	"Generic VC Router/noncritical":       "997f33211199b8712d7cb8b29aa701bd73d41e7099d9a16594e3b738d5e29d7f",
	"Path-Sensitive/critical-reliable":    "06d522ad2b183104a8751a6e2783467ea20aa3c9f56e1253537a206b4a0ba012",
	"Path-Sensitive/noncritical":          "2ce16e3f46ac8067dfb5860c4a3b9686d4e0cebf62436b4cd58687d25a0decd0",
	"RoCo/critical-reliable":              "d82fcd392bf917bd93c9d91e7d37bfb7e8fc832d278270afc12a7fd2b3a3c483",
	"RoCo/noncritical":                    "c25cd9650bbd63d8ea9074240381c98d44bed442b33df8763a3206ec12edf070",
	"PDR/critical-reliable":               "6477c35aa4a06748f6ec4ba51ccd75e7b60a68ea41b06a81e74f391ae38c6539",
	"PDR/noncritical":                     "f61378eeaa557ce8344ddec896d70280e7ce1faf1d4662eac9fde7f371883b1f",
	"Generic/torus":                       "5a09ef9a08932d699a24e95cf4ccf214601f7557936630fa78aea8c1d70af440",
	"RoCo/no-mirror":                      "c4ce2dd9081dd17652083dfb84ded01bf7ee3642520b27797c792f3d31249567",
	"RoCo/chiplet-d2d":                    "0c09c27b4786194c62a4fb7c456e084ac825e1ada9352061c40e15dbdf274712",
	"RoCo/telemetry":                      "d2adc6ee70550f3c870902e61c9c0632a3ccecd884d58abdf029b2d1d7050a2c",
	"Generic/multichip-torus":             "d92fdaeb4833f00afc1eeab3e6d753e7d389da13a38c5adb014b82c81bda6f7a",
}

// goldenDigest runs cfg to its end and hashes every Result field plus the
// final checkpoint frame.
func goldenDigest(t *testing.T, cfg Config) string {
	t.Helper()
	sim := NewSim(cfg)
	res := sim.Run()
	h := sha256.New()
	writeGoldenValue(h, reflect.ValueOf(res))
	var frame bytes.Buffer
	if err := sim.Checkpoint(&frame); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	h.Write(frame.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// writeGoldenValue writes v field by field, following pointers (printing
// one would give its address, not its value).
func writeGoldenValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		writeGoldenValue(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			writeGoldenValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeGoldenValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%v;", v)
	}
}

// goldenResaveCycles are the cycles at which TestRouterGoldenDigests
// checkpoints each case, resumes the snapshot and checkpoints again.
var goldenResaveCycles = []int64{1, 150, 300, 700}

// checkResave steps cfg through goldenResaveCycles and requires a Sim
// resumed from each checkpoint to write the same bytes back: a load that
// drops or misreads any state the save wrote changes them.
func checkResave(t *testing.T, name string, cfg Config) {
	t.Helper()
	sim := NewSim(cfg)
	for _, c := range goldenResaveCycles {
		_, interrupted, err := sim.RunCheckpointed(CheckpointOptions{CycleBudget: c})
		if err != nil {
			t.Fatalf("%s: run to cycle %d: %v", name, c, err)
		}
		var saved, resaved bytes.Buffer
		if err := sim.Checkpoint(&saved); err != nil {
			t.Fatalf("%s: checkpoint at cycle %d: %v", name, sim.Cycle(), err)
		}
		resumed, err := Resume(bytes.NewReader(saved.Bytes()), cfg)
		if err != nil {
			t.Errorf("%s: resume at cycle %d: %v", name, sim.Cycle(), err)
			return
		}
		if err := resumed.Checkpoint(&resaved); err != nil {
			t.Fatalf("%s: checkpoint of the resumed sim at cycle %d: %v", name, sim.Cycle(), err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Errorf("%s: snapshot at cycle %d changes across a resume", name, sim.Cycle())
		}
		if !interrupted {
			return // the run ended before cycle c
		}
	}
}

// TestRouterGoldenDigests pins router behaviour bit for bit: grant order,
// every activity and contention counter, fault recovery, and the snapshot
// bytes of each router kind. The kernel-equivalence suites cannot catch a
// drift that changes every kernel alike; these digests do. Each case
// also checks, under the gated kernel, the reference kernel and two
// shards, that loading a mid-run snapshot inverts saving it.
func TestRouterGoldenDigests(t *testing.T) {
	kernels := []struct {
		name      string
		reference bool
		shards    int
	}{{"gated", false, 0}, {"reference", true, 0}, {"sharded", false, 2}}
	for _, c := range goldenCases() {
		got := goldenDigest(t, c.cfg)
		if want, ok := goldenDigests[c.name]; !ok || got != want {
			t.Errorf("%q: digest %s, want %s", c.name, got, want)
		}
		for _, k := range kernels {
			cfg := c.cfg
			cfg.ReferenceKernel, cfg.Shards = k.reference, k.shards
			checkResave(t, c.name+"/"+k.name, cfg)
		}
	}
}
