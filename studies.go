package roco

import (
	"fmt"
	"io"

	"github.com/rocosim/roco/internal/report"
)

// The studies below go beyond the paper's figures: they sweep structural
// parameters the paper holds fixed (mesh size, packet length) to show how
// the RoCo advantage scales. DESIGN.md lists them as extensions.

// ScalingPoint is one mesh size's result set.
type ScalingPoint struct {
	Width, Height int
	// Latency[k] is the average latency of router k at this size.
	Latency map[RouterKind]float64
	// Energy[k] is energy per packet.
	Energy map[RouterKind]float64
}

// ScalingStudy sweeps mesh sizes at a fixed injection rate, showing how
// the decoupled design's advantages evolve with network diameter.
type ScalingStudy struct {
	Rate      float64
	Algorithm Algorithm
	Points    []ScalingPoint
}

// RunScalingStudy measures the three routers across the given square mesh
// sizes at one injection rate. The study's x-axis is the flat mesh size,
// so every size runs as a single-die mesh: the study clears the chiplet
// grid of opts, and with it the die-to-die fields, which apply only to a
// chiplet grid.
func RunScalingStudy(opts Options, alg Algorithm, rate float64, sizes []int) ScalingStudy {
	opts.ChipsX, opts.ChipsY, opts.ChipW, opts.ChipH = 0, 0, 0, 0
	res := opts.sweep(len(sizes), func(k RouterKind, i int) Config {
		cfg := opts.baseConfig(k, alg, Uniform, rate)
		cfg.Width, cfg.Height = sizes[i], sizes[i]
		return cfg
	})
	study := ScalingStudy{Rate: rate, Algorithm: alg}
	for i, size := range sizes {
		pt := ScalingPoint{
			Width: size, Height: size,
			Latency: map[RouterKind]float64{},
			Energy:  map[RouterKind]float64{},
		}
		for _, k := range RouterKinds {
			pt.Latency[k] = res[k][i].AvgLatency
			pt.Energy[k] = res[k][i].EnergyPerPacketNJ
		}
		study.Points = append(study.Points, pt)
	}
	return study
}

// Render writes the study as a table.
func (s ScalingStudy) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Mesh-size scaling — %s routing, %.0f%% injection (latency cycles / energy nJ)", s.Algorithm, s.Rate*100),
		routerRow(RouterKind.String, "mesh")...)
	for _, pt := range s.Points {
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.1f / %.2f", pt.Latency[k], pt.Energy[k]) },
			fmt.Sprintf("%dx%d", pt.Width, pt.Height))...)
	}
	tbl.Render(w)
}

// PacketSizePoint is one packet length's result set.
type PacketSizePoint struct {
	Flits   int
	Latency map[RouterKind]float64
}

// PacketSizeStudy sweeps packet lengths at a fixed flit rate: longer
// wormholes stress channel handover and HoL blocking differently.
type PacketSizeStudy struct {
	Rate      float64
	Algorithm Algorithm
	Points    []PacketSizePoint
}

// RunPacketSizeStudy measures the three routers across packet lengths.
func RunPacketSizeStudy(opts Options, alg Algorithm, rate float64, sizes []int) PacketSizeStudy {
	res := opts.sweep(len(sizes), func(k RouterKind, i int) Config {
		cfg := opts.baseConfig(k, alg, Uniform, rate)
		cfg.FlitsPerPacket = sizes[i]
		return cfg
	})
	study := PacketSizeStudy{Rate: rate, Algorithm: alg}
	for i, flits := range sizes {
		pt := PacketSizePoint{Flits: flits, Latency: map[RouterKind]float64{}}
		for _, k := range RouterKinds {
			pt.Latency[k] = res[k][i].AvgLatency
		}
		study.Points = append(study.Points, pt)
	}
	return study
}

// Render writes the study as a table.
func (s PacketSizeStudy) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Packet-length scaling — %s routing, %.0f%% injection (latency cycles)", s.Algorithm, s.Rate*100),
		routerRow(RouterKind.String, "flits/packet")...)
	for _, pt := range s.Points {
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.1f", pt.Latency[k]) },
			fmt.Sprintf("%d", pt.Flits))...)
	}
	tbl.Render(w)
}
