package roco

import (
	"reflect"
	"strings"
	"testing"
)

func TestScalingStudy(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 2000
	study := RunScalingStudy(opts, XY, 0.15, []int{4, 6})
	if len(study.Points) != 2 {
		t.Fatalf("got %d points", len(study.Points))
	}
	for _, pt := range study.Points {
		for _, k := range RouterKinds {
			if pt.Latency[k] <= 0 || pt.Energy[k] <= 0 {
				t.Fatalf("%dx%d %s: degenerate point %+v", pt.Width, pt.Height, k, pt)
			}
		}
	}
	// Bigger meshes have longer routes: latency must grow with size.
	for _, k := range RouterKinds {
		if study.Points[1].Latency[k] <= study.Points[0].Latency[k] {
			t.Errorf("%s: latency should grow from 4x4 to 6x6 (%v -> %v)",
				k, study.Points[0].Latency[k], study.Points[1].Latency[k])
		}
	}
	var sb strings.Builder
	study.Render(&sb)
	if !strings.Contains(sb.String(), "4x4") || !strings.Contains(sb.String(), "6x6") {
		t.Error("scaling render missing sizes")
	}
}

// TestScalingStudyIgnoresChiplets: the scaling study's x-axis is the flat
// mesh size, so chiplet Options leave it the single-die study.
func TestScalingStudyIgnoresChiplets(t *testing.T) {
	flat := QuickOptions()
	flat.Warmup, flat.Measure = 200, 1000
	chiplet := flat
	chiplet.ChipsX, chiplet.ChipsY, chiplet.ChipW, chiplet.ChipH = 2, 2, 2, 2
	chiplet.D2DClass, chiplet.D2DLatency = D2DSerial, 6
	sizes := []int{4, 6}
	got := RunScalingStudy(chiplet, XY, 0.15, sizes)
	if want := RunScalingStudy(flat, XY, 0.15, sizes); !reflect.DeepEqual(got, want) {
		t.Fatalf("chiplet options changed the scaling study\n got: %+v\nwant: %+v", got.Points, want.Points)
	}
}

func TestPacketSizeStudy(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 2000
	study := RunPacketSizeStudy(opts, XY, 0.15, []int{2, 8})
	if len(study.Points) != 2 {
		t.Fatalf("got %d points", len(study.Points))
	}
	// Longer packets serialize more: latency grows with packet length.
	for _, k := range RouterKinds {
		if study.Points[1].Latency[k] <= study.Points[0].Latency[k] {
			t.Errorf("%s: latency should grow with packet length (%v -> %v)",
				k, study.Points[0].Latency[k], study.Points[1].Latency[k])
		}
	}
	var sb strings.Builder
	study.Render(&sb)
	if !strings.Contains(sb.String(), "flits/packet") {
		t.Error("packet-size render missing header")
	}
}

func TestRunTraced(t *testing.T) {
	cfg := quickConfig(RoCo, XY, Uniform, 0.15)
	cfg.MeasurePackets = 2000
	res, traces := runTraced(cfg, 10)
	if res.Completion != 1 {
		t.Fatalf("completion %.3f", res.Completion)
	}
	if len(traces) < 5 || len(traces) > 30 {
		t.Fatalf("sampled %d traces, want ~10", len(traces))
	}
	for _, tr := range traces {
		if !tr.Completed {
			t.Errorf("pkt %d did not complete in a fault-free run", tr.PacketID)
		}
		if len(tr.Events) < 2 {
			t.Errorf("pkt %d journey too short: %v", tr.PacketID, tr.Events)
		}
		if tr.Events[0].Kind != "inject" || tr.Events[len(tr.Events)-1].Kind != "deliver" {
			t.Errorf("pkt %d journey malformed: %s", tr.PacketID, tr)
		}
		if tr.Events[0].Node != tr.Src || tr.Events[len(tr.Events)-1].Node != tr.Dst {
			t.Errorf("pkt %d endpoints wrong: %s", tr.PacketID, tr)
		}
		// Consecutive arrivals must be mesh neighbors (path continuity).
		for i := 1; i < len(tr.Events); i++ {
			a, b := tr.Events[i-1].Node, tr.Events[i].Node
			ax, ay := a%8, a/8
			bx, by := b%8, b/8
			if abs(ax-bx)+abs(ay-by) != 1 {
				t.Errorf("pkt %d teleported %d->%d: %s", tr.PacketID, a, b, tr)
			}
		}
		if tr.String() == "" {
			t.Error("empty trace string")
		}
	}
}

func TestRunTracedUnderFaults(t *testing.T) {
	cfg := quickConfig(Generic, XY, Uniform, 0.25)
	cfg.Faults = []Fault{{Node: 27, Component: Crossbar}}
	cfg.InactivityLimit = 1500
	cfg.MeasurePackets = 3000
	_, traces := runTraced(cfg, 40)
	dropped := 0
	for _, tr := range traces {
		if !tr.Completed {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("some sampled packets should be dropped around the dead node")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestRunWindowed(t *testing.T) {
	cfg := quickConfig(RoCo, XY, Uniform, 0.2)
	cfg.MeasurePackets = 3000
	res, windows := RunWindowed(cfg, 200)
	if res.Completion != 1 {
		t.Fatalf("completion %.3f", res.Completion)
	}
	if len(windows) < 3 {
		t.Fatalf("only %d windows", len(windows))
	}
	var total int64
	for i, w := range windows {
		total += w.Delivered
		if w.Delivered > 0 && (w.AvgLatency <= 0 || w.AvgLatency > 500) {
			t.Errorf("window %d: implausible latency %.2f", i, w.AvgLatency)
		}
		if i > 0 && w.StartCycle <= windows[i-1].StartCycle {
			t.Errorf("windows not monotone at %d", i)
		}
	}
	if total != res.DeliveredPackets {
		t.Errorf("window deliveries %d != total %d", total, res.DeliveredPackets)
	}
	// The windows are a view of one ordinary run: the Result must be Run's.
	if want := Run(cfg); !reflect.DeepEqual(res, want) {
		t.Errorf("RunWindowed result diverged from Run\n got: %+v\nwant: %+v", res, want)
	}
}

func TestRunWindowedBurstiness(t *testing.T) {
	// Self-similar traffic must show higher window-to-window variance in
	// deliveries than uniform traffic at the same mean rate.
	disp := func(tp TrafficPattern) float64 {
		cfg := quickConfig(RoCo, XY, tp, 0.2)
		cfg.MeasurePackets = 6000
		_, ws := RunWindowed(cfg, 100)
		var s, ss, n float64
		for _, w := range ws[:len(ws)-1] { // final partial window excluded
			s += float64(w.Delivered)
			ss += float64(w.Delivered) * float64(w.Delivered)
			n++
		}
		mean := s / n
		return (ss/n - mean*mean) / mean
	}
	u, ssim := disp(Uniform), disp(SelfSimilar)
	if ssim < 1.5*u {
		t.Errorf("self-similar window dispersion %.2f should exceed uniform %.2f", ssim, u)
	}
}
