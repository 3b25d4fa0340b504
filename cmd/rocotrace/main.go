// Command rocotrace inspects traffic offline, in two modes.
//
// Generator mode (the default) draws a synthetic injection trace for one
// node and prints per-window rates and burstiness statistics, which is how
// the self-similar and MPEG-2 generators were validated against their
// target mean rates:
//
//	rocotrace -traffic selfsimilar -rate 0.3 -cycles 200000 -window 1000
//
// Telemetry mode (-telemetry) runs a full simulation with epoch telemetry
// enabled and exports the time series — epoch CSV, per-node CSV, JSON, or
// per-epoch link-utilization heatmap tables:
//
//	rocotrace -telemetry -router roco -rate 0.30 -every 256 -format csv
//	rocotrace -telemetry -router roco -rate 0.30 -format heatmap
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

func main() {
	var (
		trafficName = flag.String("traffic", "selfsimilar", "pattern: uniform, transpose, selfsimilar, mpeg2, bitcomplement, hotspot")
		rate        = flag.Float64("rate", 0.30, "target injection rate in flits/node/cycle")
		cycles      = flag.Int64("cycles", 200000, "trace length in cycles (generator mode)")
		window      = flag.Int64("window", 1000, "averaging window for the rate profile (generator mode)")
		node        = flag.Int("node", 0, "node whose generator to trace (generator mode)")
		seed        = flag.Uint64("seed", 1, "random seed")
		dump        = flag.Bool("dump", false, "print every generated packet (generator mode)")
		telemetry   = flag.Bool("telemetry", false, "run a simulation and export its telemetry epoch series instead of tracing a generator")
		format      = flag.String("format", "csv", "telemetry export: csv (epoch rows), nodes (per-epoch-per-node rows), json, heatmap (per-epoch utilization tables)")
		every       = flag.Int64("every", 256, "telemetry epoch length in cycles (telemetry mode)")
		routerName  = flag.String("router", "roco", "router architecture for telemetry mode: generic, pathsensitive, roco, pdr")
		routingName = flag.String("routing", "xy", "routing algorithm for telemetry mode: xy, xyyx, adaptive")
		width       = flag.Int("width", 8, "mesh width (telemetry mode)")
		height      = flag.Int("height", 8, "mesh height (telemetry mode)")
		warmup      = flag.Int64("warmup", 2000, "warm-up packets (telemetry mode)")
		measure     = flag.Int64("measure", 30000, "measured packets (telemetry mode)")
	)
	flag.Parse()

	if *telemetry {
		runTelemetry(telemetryConfig{
			router: *routerName, routing: *routingName, traffic: *trafficName,
			rate: *rate, width: *width, height: *height,
			warmup: *warmup, measure: *measure, seed: *seed,
			every: *every, format: *format,
		})
		return
	}

	var pattern traffic.Pattern
	switch strings.ToLower(*trafficName) {
	case "uniform":
		pattern = traffic.Uniform
	case "transpose":
		pattern = traffic.Transpose
	case "selfsimilar", "self-similar", "web":
		pattern = traffic.SelfSimilar
	case "mpeg2", "mpeg", "video":
		pattern = traffic.MPEG2
	case "bitcomplement", "bit-complement":
		pattern = traffic.BitComplement
	case "hotspot":
		pattern = traffic.Hotspot
	default:
		fmt.Fprintf(os.Stderr, "rocotrace: unknown traffic %q\n", *trafficName)
		os.Exit(2)
	}

	topo := topology.NewMesh(8, 8)
	gens := traffic.New(traffic.Config{
		Pattern:         pattern,
		Rate:            *rate,
		FlitsPerPacket:  4,
		HotspotNode:     27,
		HotspotFraction: 0.2,
	}, topo, stats.NewRNG(*seed))
	gen := gens[*node]

	var total int64
	var windowCount int64
	var winStats stats.Running
	dsts := map[int]int64{}
	for c := int64(0); c < *cycles; c++ {
		if dst, ok := gen.NextPacket(c); ok {
			total++
			windowCount++
			dsts[dst]++
			if *dump {
				fmt.Printf("%d -> %d\n", c, dst)
			}
		}
		if (c+1)%*window == 0 {
			winStats.Add(float64(windowCount))
			windowCount = 0
		}
	}

	pktRate := float64(total) / float64(*cycles)
	fmt.Printf("pattern %s, node %d, %d cycles\n", pattern, *node, *cycles)
	fmt.Printf("  packets generated   %d\n", total)
	fmt.Printf("  mean rate           %.4f flits/node/cycle (target %.4f)\n", pktRate*4, *rate)
	fmt.Printf("  windows of %d cyc: mean %.2f pkts, sd %.2f, max %.0f\n",
		*window, winStats.Mean(), winStats.StdDev(), winStats.Max())
	if winStats.Mean() > 0 {
		// Index of dispersion: 1.0 for Poisson-like processes; bursty
		// (self-similar, video) traffic is substantially higher.
		fmt.Printf("  index of dispersion %.2f (Poisson = 1.0)\n",
			winStats.Variance()/winStats.Mean())
	}
	fmt.Printf("  distinct dests      %d\n", len(dsts))
}

// telemetryConfig carries the flag values of telemetry mode.
type telemetryConfig struct {
	router, routing, traffic string
	rate                     float64
	width, height            int
	warmup, measure          int64
	seed                     uint64
	every                    int64
	format                   string
}

// runTelemetry executes one simulation with epoch telemetry enabled and
// writes the series to stdout in the requested format.
func runTelemetry(tc telemetryConfig) {
	cfg := roco.Config{
		Width: tc.width, Height: tc.height,
		InjectionRate:  tc.rate,
		WarmupPackets:  tc.warmup,
		MeasurePackets: tc.measure,
		Seed:           tc.seed,
		TelemetryEvery: tc.every,
	}
	if cfg.Router.UnmarshalText([]byte(tc.router)) != nil {
		fatalf("unknown router %q (want generic, pathsensitive, roco, pdr)", tc.router)
	}
	if cfg.Algorithm.UnmarshalText([]byte(tc.routing)) != nil {
		fatalf("unknown routing %q (want xy, xyyx, adaptive)", tc.routing)
	}
	if cfg.Traffic.UnmarshalText([]byte(tc.traffic)) != nil {
		fatalf("unknown traffic %q", tc.traffic)
	}
	if tc.every <= 0 {
		fatalf("-every must be positive in telemetry mode")
	}

	t := roco.Run(cfg).Telemetry
	switch strings.ToLower(tc.format) {
	case "csv":
		if err := t.WriteCSV(os.Stdout); err != nil {
			fatalf("csv: %v", err)
		}
	case "nodes", "nodecsv":
		if err := t.WriteNodeCSV(os.Stdout); err != nil {
			fatalf("nodes: %v", err)
		}
	case "json":
		if err := roco.WriteJSON(os.Stdout, t); err != nil {
			fatalf("json: %v", err)
		}
	case "heatmap":
		for i := range t.Epochs {
			if i > 0 {
				fmt.Println()
			}
			t.RenderHeatmap(os.Stdout, &t.Epochs[i])
		}
	default:
		fatalf("unknown format %q (want csv, nodes, json, heatmap)", tc.format)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rocotrace: "+format+"\n", args...)
	os.Exit(2)
}
