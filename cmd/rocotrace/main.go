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
	"io"
	"os"
	"strings"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// formats is the telemetry-mode -format table: each export's accepted
// names (canonical first) and its writer of the epoch series.
var formats = []struct {
	names []string
	write func(t *roco.Telemetry, w io.Writer) error
}{
	{[]string{"csv"}, (*roco.Telemetry).WriteCSV},
	{[]string{"nodes", "nodecsv"}, (*roco.Telemetry).WriteNodeCSV},
	{[]string{"json"}, func(t *roco.Telemetry, w io.Writer) error { return roco.WriteJSON(w, t) }},
	{[]string{"heatmap"}, func(t *roco.Telemetry, w io.Writer) error {
		for i := range t.Epochs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			t.RenderHeatmap(w, &t.Epochs[i])
		}
		return nil
	}},
}

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

	var tp roco.TrafficPattern
	if tp.UnmarshalText([]byte(*trafficName)) != nil {
		fatalf("unknown traffic %q", *trafficName)
	}
	if *telemetry {
		write := exporter(*format)
		cfg := roco.Config{
			Width: *width, Height: *height,
			Traffic:        tp,
			InjectionRate:  *rate,
			WarmupPackets:  *warmup,
			MeasurePackets: *measure,
			Seed:           *seed,
			TelemetryEvery: *every,
		}
		if cfg.Router.UnmarshalText([]byte(*routerName)) != nil {
			fatalf("unknown router %q (want generic, pathsensitive, roco, pdr)", *routerName)
		}
		if cfg.Algorithm.UnmarshalText([]byte(*routingName)) != nil {
			fatalf("unknown routing %q (want xy, xyyx, adaptive)", *routingName)
		}
		if *every <= 0 {
			fatalf("-every must be positive in telemetry mode")
		}
		if err := cfg.Validate(); err != nil {
			fatalf("%v", err)
		}
		if err := write(roco.Run(cfg).Telemetry, os.Stdout); err != nil {
			fatalf("%s: %v", *format, err)
		}
		return
	}

	// The public and internal pattern enums share their values, which the
	// root package's TestTrafficPatternValues pins for every pattern.
	pattern := traffic.Pattern(tp)
	topo := topology.NewMesh(8, 8)
	if *node < 0 || *node >= topo.Nodes() {
		fatalf("-node %d outside the 8x8 mesh (want 0..%d)", *node, topo.Nodes()-1)
	}
	if *window < 1 || *cycles < 1 {
		fatalf("-window and -cycles must be positive")
	}
	// A negated range check, as in Config.Validate, so that NaN fails too.
	if !(*rate >= 0 && *rate <= 1) {
		fatalf("-rate %v outside [0,1] flits/node/cycle", *rate)
	}

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

// exporter looks name up in the -format table, before any simulation
// runs, and exits on an unknown format.
func exporter(name string) func(*roco.Telemetry, io.Writer) error {
	var want []string
	for _, f := range formats {
		for _, n := range f.names {
			if strings.EqualFold(name, n) {
				return f.write
			}
		}
		want = append(want, f.names[0])
	}
	fatalf("unknown format %q (want %s)", name, strings.Join(want, ", "))
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rocotrace: "+format+"\n", args...)
	os.Exit(2)
}
