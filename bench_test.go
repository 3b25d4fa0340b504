package roco

import (
	"io"
	"testing"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation at a reduced run length (QuickOptions), reporting wall time
// per regeneration. cmd/rocobench prints the same rows/series at full
// harness scale; EXPERIMENTS.md records the shipped numbers.

// BenchmarkTable1VCConfig regenerates the paper's Table 1 (RoCo VC buffer
// configurations per routing algorithm).
func BenchmarkTable1VCConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table1(io.Discard)
	}
}

// BenchmarkTable2NonBlocking regenerates the paper's Table 2 (non-blocking
// probabilities, analytic recurrence plus Monte-Carlo cross-check).
func BenchmarkTable2NonBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Table2(100000, uint64(i)+1)
		if res.RoCo != 0.25 {
			b.Fatal("table 2 wrong")
		}
	}
}

// BenchmarkTable3FaultClassification regenerates the paper's Table 3.
func BenchmarkTable3FaultClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table3(io.Discard)
	}
}

// BenchmarkFig3Contention regenerates Figure 3 (contention probabilities
// versus injection rate for the three routers).
func BenchmarkFig3Contention(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		panels := Figure3(opts)
		if len(panels) != 3 {
			b.Fatal("figure 3 should have three panels")
		}
	}
}

// BenchmarkFig8UniformLatency regenerates Figure 8 (latency vs load,
// uniform traffic, three routing algorithms).
func BenchmarkFig8UniformLatency(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure8(opts)) != 3 {
			b.Fatal("figure 8 should have three panels")
		}
	}
}

// BenchmarkFig9SelfSimilarLatency regenerates Figure 9 (self-similar web
// traffic).
func BenchmarkFig9SelfSimilarLatency(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure9(opts)) != 3 {
			b.Fatal("figure 9 should have three panels")
		}
	}
}

// BenchmarkFig10TransposeLatency regenerates Figure 10 (transpose traffic).
func BenchmarkFig10TransposeLatency(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure10(opts)) != 3 {
			b.Fatal("figure 10 should have three panels")
		}
	}
}

// BenchmarkFig11CriticalFaults regenerates Figure 11 (completion under
// router-centric faults).
func BenchmarkFig11CriticalFaults(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure11(opts)) != 3 {
			b.Fatal("figure 11 should have three panels")
		}
	}
}

// BenchmarkFig12NonCriticalFaults regenerates Figure 12 (completion under
// message-centric faults).
func BenchmarkFig12NonCriticalFaults(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure12(opts)) != 3 {
			b.Fatal("figure 12 should have three panels")
		}
	}
}

// BenchmarkFig13EnergyPerPacket regenerates Figure 13 (energy per packet
// across traffic patterns).
func BenchmarkFig13EnergyPerPacket(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		res := Figure13(opts)
		if len(res.EnergyNJ[RoCo]) != 3 {
			b.Fatal("figure 13 should cover three traffic patterns")
		}
	}
}

// BenchmarkFig14PEF regenerates Figure 14 (PEF under critical and
// non-critical faults).
func BenchmarkFig14PEF(b *testing.B) {
	opts := QuickOptions()
	for i := 0; i < b.N; i++ {
		if len(Figure14(opts)) != 2 {
			b.Fatal("figure 14 should have two panels")
		}
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed (cycles per
// second) for each router kind: one fixed-load 8x8 run per iteration.
func BenchmarkSimulationThroughput(b *testing.B) {
	for _, k := range RouterKinds {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res := Run(Config{
					Router: k, Algorithm: XY, Traffic: Uniform,
					InjectionRate: 0.25,
					WarmupPackets: 200, MeasurePackets: 5000,
					Seed: uint64(i) + 1,
				})
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// --- Ablation benches (design choices DESIGN.md calls out) ---

// BenchmarkAblationEarlyEjection quantifies the latency saved by early
// ejection: RoCo versus the generic router (which pays SA + switch
// traversal at the destination) at near-zero load, where the 2-cycle gap
// is the dominant difference.
func BenchmarkAblationEarlyEjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen := Run(Config{Router: Generic, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.02, WarmupPackets: 100, MeasurePackets: 2000, Seed: 3})
		rc := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.02, WarmupPackets: 100, MeasurePackets: 2000, Seed: 3})
		b.ReportMetric(gen.AvgLatency-rc.AvgLatency, "cycles-saved")
	}
}

// BenchmarkAblationVCConfig contrasts the three Table 1 configurations on
// the same workload: the per-algorithm channel assignment is itself a
// design choice (XY's extra dx channels versus adaptive's extra txy).
func BenchmarkAblationVCConfig(b *testing.B) {
	for _, alg := range Algorithms {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Run(Config{Router: RoCo, Algorithm: alg, Traffic: Uniform,
					InjectionRate: 0.25, WarmupPackets: 200, MeasurePackets: 4000, Seed: 5})
				b.ReportMetric(res.AvgLatency, "avg-cycles")
			}
		})
	}
}

// BenchmarkAblationMirrorVsChained contrasts the mirror allocator's 2x2
// modules (RoCo) against the chained quadrant allocation (path-sensitive)
// at high load, isolating the matching-quality difference Table 2
// formalizes.
func BenchmarkAblationMirrorVsChained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := Run(Config{Router: PathSensitive, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.30, WarmupPackets: 200, MeasurePackets: 4000, Seed: 9})
		rc := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.30, WarmupPackets: 200, MeasurePackets: 4000, Seed: 9})
		b.ReportMetric(ps.AvgLatency/rc.AvgLatency, "latency-ratio")
	}
}

// BenchmarkAblationMirrorSA contrasts the Mirroring-Effect switch
// allocator against a plain separable output stage on the same RoCo
// datapath at high load — the matching-quality gain of the paper's
// Section 3.3 in isolation.
func BenchmarkAblationMirrorSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mirror := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.30, WarmupPackets: 200, MeasurePackets: 4000, Seed: 13})
		separable := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
			InjectionRate: 0.30, WarmupPackets: 200, MeasurePackets: 4000, Seed: 13,
			DisableMirrorSA: true})
		b.ReportMetric(separable.AvgLatency/mirror.AvgLatency, "latency-ratio")
	}
}

// BenchmarkAblationFaultRecovery measures the cost of each hardware-
// recycling scheme: latency with the recoverable fault divided by the
// fault-free latency.
func BenchmarkAblationFaultRecovery(b *testing.B) {
	comps := map[string]Component{"RC-double-routing": RC, "buffer-virtual-queuing": Buffer, "SA-resource-sharing": SA}
	for name, comp := range comps {
		comp := comp
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
					InjectionRate: 0.20, WarmupPackets: 200, MeasurePackets: 3000, Seed: 11})
				faulty := Run(Config{Router: RoCo, Algorithm: XY, Traffic: Uniform,
					InjectionRate: 0.20, WarmupPackets: 200, MeasurePackets: 3000, Seed: 11,
					Faults: []Fault{{Node: 27, Component: comp, Module: 0, VC: 0}}})
				if faulty.Completion != 1 {
					b.Fatalf("%s recovery incomplete: %v", name, faulty.Completion)
				}
				b.ReportMetric(faulty.AvgLatency/base.AvgLatency, "latency-ratio")
			}
		})
	}
}
