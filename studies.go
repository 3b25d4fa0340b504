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
	study := ScalingStudy{Rate: rate, Algorithm: alg}
	var cfgs []Config
	for _, size := range sizes {
		for _, k := range RouterKinds {
			cfg := opts.baseConfig(k, alg, Uniform, rate)
			cfg.Width, cfg.Height = size, size
			cfg.MaxCycles = 40 * (opts.Warmup + opts.Measure)
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(opts, cfgs)
	i := 0
	for _, size := range sizes {
		pt := ScalingPoint{
			Width: size, Height: size,
			Latency: map[RouterKind]float64{},
			Energy:  map[RouterKind]float64{},
		}
		for _, k := range RouterKinds {
			pt.Latency[k] = results[i].AvgLatency
			pt.Energy[k] = results[i].EnergyPerPacketNJ
			i++
		}
		study.Points = append(study.Points, pt)
	}
	return study
}

// Render writes the study as a table.
func (s ScalingStudy) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Mesh-size scaling — %s routing, %.0f%% injection (latency cycles / energy nJ)", s.Algorithm, s.Rate*100),
		append([]string{"mesh"}, routerHeaders()...)...)
	for _, pt := range s.Points {
		cells := []string{fmt.Sprintf("%dx%d", pt.Width, pt.Height)}
		for _, k := range RouterKinds {
			cells = append(cells, fmt.Sprintf("%.1f / %.2f", pt.Latency[k], pt.Energy[k]))
		}
		tbl.AddRow(cells...)
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
	study := PacketSizeStudy{Rate: rate, Algorithm: alg}
	var cfgs []Config
	for _, flits := range sizes {
		for _, k := range RouterKinds {
			cfg := opts.baseConfig(k, alg, Uniform, rate)
			cfg.FlitsPerPacket = flits
			cfg.MaxCycles = 40 * (opts.Warmup + opts.Measure)
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(opts, cfgs)
	i := 0
	for _, flits := range sizes {
		pt := PacketSizePoint{Flits: flits, Latency: map[RouterKind]float64{}}
		for _, k := range RouterKinds {
			pt.Latency[k] = results[i].AvgLatency
			i++
		}
		study.Points = append(study.Points, pt)
	}
	return study
}

// Render writes the study as a table.
func (s PacketSizeStudy) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Packet-length scaling — %s routing, %.0f%% injection (latency cycles)", s.Algorithm, s.Rate*100),
		append([]string{"flits/packet"}, routerHeaders()...)...)
	for _, pt := range s.Points {
		cells := []string{fmt.Sprintf("%d", pt.Flits)}
		for _, k := range RouterKinds {
			cells = append(cells, fmt.Sprintf("%.1f", pt.Latency[k]))
		}
		tbl.AddRow(cells...)
	}
	tbl.Render(w)
}
