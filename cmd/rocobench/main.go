// Command rocobench regenerates the tables and figures of the paper's
// evaluation section (Kim et al., ISCA 2006) and prints them as ASCII
// tables and plots.
//
// Run everything:
//
//	rocobench -exp all
//
// Or a single experiment:
//
//	rocobench -exp fig8
//	rocobench -exp table2
//	rocobench -exp fig11 -trials 5 -measure 50000
//
// The defaults use a scaled-down run length (2k warm-up + 30k measured
// packets per point, versus the paper's 20k + 1M) so the full suite
// finishes in minutes; raise -warmup/-measure for paper-scale statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/topology"
)

var experiments = []string{
	"table1", "table2", "table3",
	"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
}

// extensions are studies beyond the paper's figures; they run only when
// requested by name.
var extensions = []string{"scaling", "pktsize", "saturation", "mpeg", "degradation"}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: "+strings.Join(append(append([]string{}, experiments...), extensions...), ", ")+", or all (paper figures only)")
		warmup   = flag.Int64("warmup", 2000, "warm-up packets per run")
		measure  = flag.Int64("measure", 30000, "measured packets per run")
		trials   = flag.Int("trials", 3, "random fault placements per point (figs 11/12/14)")
		seed     = flag.Uint64("seed", 1, "random seed")
		width    = flag.Int("width", 8, "mesh width")
		height   = flag.Int("height", 8, "mesh height")
		workers  = flag.Int("workers", 0, "total simulation concurrency, shared between parallel configurations and per-run shards (0 = GOMAXPROCS, 1 = serial)")
		shards   = flag.Int("shards", 1, "split every simulation across this many mesh shards (bit-identical results for any value)")
		mcSample = flag.Int("mc", 1_000_000, "Monte-Carlo samples for table 2")
		jsonOut  = flag.String("json", "", "also write machine-readable results to this file")
		kernel   = flag.String("kernel", "gated", "simulation kernel: gated (activity-gated, default) or reference (tick everything)")
		reliable = flag.Bool("reliable", false, "arm end-to-end reliable delivery in the fault-injecting experiments (degradation)")
		chips    = flag.String("chips", "", "run on a multichip mesh: chiplet grid as CXxCY (needs -chip-size; the degradation experiment then strikes a whole die-to-die interface)")
		chipSize = flag.String("chip-size", "", "nodes per chiplet as WxH (needs -chips)")
		d2dClass = flag.String("d2d-class", "parallel", "die-to-die boundary link class: parallel, serial")
		d2dLat   = flag.Int("d2d-latency", 0, "die-to-die link latency in cycles (0 = class default)")
		d2dGap   = flag.Int("d2d-gap", 0, "cycles between flits entering a die-to-die link (0 = class default)")
	)
	flag.Parse()

	reference := false
	switch strings.ToLower(*kernel) {
	case "gated":
	case "reference":
		reference = true
	default:
		fmt.Fprintf(os.Stderr, "unknown kernel %q (want gated, reference)\n", *kernel)
		os.Exit(1)
	}

	opts := roco.Options{
		Width: *width, Height: *height,
		Warmup: *warmup, Measure: *measure,
		FaultTrials:     *trials,
		Seed:            *seed,
		Workers:         *workers,
		Shards:          *shards,
		ReferenceKernel: reference,
		Reliable:        *reliable,
	}
	if (*chips == "") != (*chipSize == "") {
		fmt.Fprintln(os.Stderr, "rocobench: -chips and -chip-size must be set together")
		os.Exit(1)
	}
	if *chips != "" {
		var err error
		if opts.ChipsX, opts.ChipsY, err = topology.ParseGrid(*chips); err != nil {
			fmt.Fprintf(os.Stderr, "rocobench: -chips: %v\n", err)
			os.Exit(1)
		}
		if opts.ChipW, opts.ChipH, err = topology.ParseGrid(*chipSize); err != nil {
			fmt.Fprintf(os.Stderr, "rocobench: -chip-size: %v\n", err)
			os.Exit(1)
		}
		if err := opts.D2DClass.UnmarshalText([]byte(*d2dClass)); err != nil {
			fmt.Fprintf(os.Stderr, "rocobench: -d2d-class: %v\n", err)
			os.Exit(1)
		}
		opts.D2DLatency, opts.D2DGap = *d2dLat, *d2dGap
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rocobench: %v\n", err)
		os.Exit(1)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments
	}
	jsonResults := map[string]any{}
	for _, name := range names {
		start := time.Now()
		switch name {
		case "table1":
			roco.Table1(os.Stdout)
		case "table2":
			res := roco.Table2(*mcSample, *seed)
			res.Render(os.Stdout)
			jsonResults[name] = res
		case "table3":
			roco.Table3(os.Stdout)
		case "fig2":
			roco.Figure2(os.Stdout, 3)
		case "fig3":
			fmt.Println("Figure 3 — contention probabilities, uniform traffic")
			panels := roco.Figure3(opts)
			for _, panel := range panels {
				panel.Render(os.Stdout)
			}
			jsonResults[name] = panels
		case "fig8":
			fmt.Println("Figure 8 — uniform random traffic")
			sweeps := roco.Figure8(opts)
			for _, sweep := range sweeps {
				sweep.Render(os.Stdout)
			}
			jsonResults[name] = sweeps
		case "fig9":
			fmt.Println("Figure 9 — self-similar traffic")
			sweeps := roco.Figure9(opts)
			for _, sweep := range sweeps {
				sweep.Render(os.Stdout)
			}
			jsonResults[name] = sweeps
		case "fig10":
			fmt.Println("Figure 10 — transpose traffic")
			sweeps := roco.Figure10(opts)
			for _, sweep := range sweeps {
				sweep.Render(os.Stdout)
			}
			jsonResults[name] = sweeps
		case "fig11":
			fmt.Println("Figure 11 — completion probability, router-centric (critical) faults")
			panels := roco.Figure11(opts)
			for _, panel := range panels {
				panel.Render(os.Stdout)
			}
			jsonResults[name] = panels
		case "fig12":
			fmt.Println("Figure 12 — completion probability, message-centric (non-critical) faults")
			panels := roco.Figure12(opts)
			for _, panel := range panels {
				panel.Render(os.Stdout)
			}
			jsonResults[name] = panels
		case "fig13":
			fmt.Println("Figure 13 — energy per packet")
			res := roco.Figure13(opts)
			res.Render(os.Stdout)
			jsonResults[name] = res
		case "fig14":
			fmt.Println("Figure 14 — Performance-Energy-Fault-tolerance (PEF)")
			panels := roco.Figure14(opts)
			for _, panel := range panels {
				panel.Render(os.Stdout)
			}
			jsonResults[name] = panels
		case "scaling":
			fmt.Println("Extension — mesh-size scaling")
			roco.RunScalingStudy(opts, roco.XY, 0.20, []int{4, 6, 8, 10, 12}).Render(os.Stdout)
		case "pktsize":
			fmt.Println("Extension — packet-length scaling")
			roco.RunPacketSizeStudy(opts, roco.XY, 0.20, []int{1, 2, 4, 8, 16}).Render(os.Stdout)
		case "mpeg":
			fmt.Println("Extension — MPEG-2 video traffic (the paper ran this workload but omitted the plots for space)")
			for _, sweep := range roco.FigureMPEG(opts) {
				sweep.Render(os.Stdout)
			}
		case "degradation":
			fmt.Println("Extension — graceful degradation under a runtime fault")
			exp := roco.RunDegradationExperiment(opts, roco.XY)
			exp.Render(os.Stdout)
			jsonResults[name] = exp
		case "saturation":
			fmt.Println("Extension — saturation throughput")
			for _, alg := range roco.Algorithms {
				roco.RunSaturationStudy(opts, alg).Render(os.Stdout)
			}
		default:
			fmt.Fprintf(os.Stderr, "rocobench: unknown experiment %q (want %s)\n", name, strings.Join(experiments, ", "))
			os.Exit(2)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		writeResults(*jsonOut, jsonResults)
	}
}

func writeResults(path string, jsonResults map[string]any) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rocobench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := roco.WriteJSON(f, jsonResults); err != nil {
		fmt.Fprintf(os.Stderr, "rocobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
