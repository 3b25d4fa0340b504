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
	"io"
	"os"
	"strings"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/topology"
)

// experiment is one -exp entry. run writes the experiment's tables to w
// and returns the value the -json file records under its name, or nil to
// record nothing.
type experiment struct {
	name, heading string
	// extension marks a study beyond the paper's figures: it runs only
	// when requested by name, never under -exp all.
	extension bool
	run       func(w io.Writer, o roco.Options) any
}

// mcSamples sizes table2's Monte-Carlo cross-check.
var mcSamples = flag.Int("mc", 1_000_000, "Monte-Carlo samples for table 2")

// experiments lists every -exp entry in the order -exp all runs the
// paper's tables and figures.
var experiments = []experiment{
	{name: "table1", run: func(w io.Writer, _ roco.Options) any { roco.Table1(w); return nil }},
	{name: "table2", run: func(w io.Writer, o roco.Options) any { return render(w, roco.Table2(*mcSamples, o.Seed)) }},
	{name: "table3", run: func(w io.Writer, _ roco.Options) any { roco.Table3(w); return nil }},
	{name: "fig2", run: func(w io.Writer, _ roco.Options) any { roco.Figure2(w, 3); return nil }},
	{name: "fig3", heading: "Figure 3 — contention probabilities, uniform traffic",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure3(o)) }},
	{name: "fig8", heading: "Figure 8 — uniform random traffic",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure8(o)) }},
	{name: "fig9", heading: "Figure 9 — self-similar traffic",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure9(o)) }},
	{name: "fig10", heading: "Figure 10 — transpose traffic",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure10(o)) }},
	{name: "fig11", heading: "Figure 11 — completion probability, router-centric (critical) faults",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure11(o)) }},
	{name: "fig12", heading: "Figure 12 — completion probability, message-centric (non-critical) faults",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure12(o)) }},
	{name: "fig13", heading: "Figure 13 — energy per packet",
		run: func(w io.Writer, o roco.Options) any { return render(w, roco.Figure13(o)) }},
	{name: "fig14", heading: "Figure 14 — Performance-Energy-Fault-tolerance (PEF)",
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.Figure14(o)) }},
	{name: "scaling", heading: "Extension — mesh-size scaling", extension: true,
		run: func(w io.Writer, o roco.Options) any {
			return render(w, roco.RunScalingStudy(o, roco.XY, 0.20, []int{4, 6, 8, 10, 12}))
		}},
	{name: "pktsize", heading: "Extension — packet-length scaling", extension: true,
		run: func(w io.Writer, o roco.Options) any {
			return render(w, roco.RunPacketSizeStudy(o, roco.XY, 0.20, []int{1, 2, 4, 8, 16}))
		}},
	{name: "saturation", heading: "Extension — saturation throughput", extension: true,
		run: func(w io.Writer, o roco.Options) any {
			return renderAll(w, roco.RunSaturationStudy(o, roco.Algorithms[:]...))
		}},
	{name: "mpeg", heading: "Extension — MPEG-2 video traffic (the paper ran this workload but omitted the plots for space)", extension: true,
		run: func(w io.Writer, o roco.Options) any { return renderAll(w, roco.FigureMPEG(o)) }},
	{name: "degradation", heading: "Extension — graceful degradation under a runtime fault", extension: true,
		run: func(w io.Writer, o roco.Options) any { return render(w, roco.RunDegradationExperiment(o, roco.XY)) }},
}

// renderer is a driver result that writes itself as tables.
type renderer interface{ Render(io.Writer) }

// render writes v's tables to w and returns v.
func render[T renderer](w io.Writer, v T) T {
	v.Render(w)
	return v
}

// renderAll writes each panel's tables to w and returns the panels.
func renderAll[T renderer](w io.Writer, panels []T) []T {
	for _, p := range panels {
		p.Render(w)
	}
	return panels
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: "+strings.Join(names(), ", ")+", or all (paper figures only)")
		warmup   = flag.Int64("warmup", 2000, "warm-up packets per run")
		measure  = flag.Int64("measure", 30000, "measured packets per run")
		trials   = flag.Int("trials", 3, "random fault placements per point (figs 11/12/14)")
		seed     = flag.Uint64("seed", 1, "random seed")
		width    = flag.Int("width", 8, "mesh width")
		height   = flag.Int("height", 8, "mesh height")
		workers  = flag.Int("workers", 0, "total simulation concurrency, shared between parallel configurations and per-run shards (0 = GOMAXPROCS, 1 = serial)")
		shards   = flag.Int("shards", 1, "split every simulation across this many mesh shards (bit-identical results for any value)")
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
	if *mcSamples < 1 {
		fmt.Fprintf(os.Stderr, "rocobench: -mc %d: need at least one Monte-Carlo sample\n", *mcSamples)
		os.Exit(1)
	}

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

	var run []experiment
	for _, e := range experiments {
		if e.name == *exp || *exp == "all" && !e.extension {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "rocobench: unknown experiment %q (want %s, or all)\n", *exp, strings.Join(names(), ", "))
		os.Exit(2)
	}
	jsonResults := map[string]any{}
	for _, e := range run {
		start := time.Now()
		if e.heading != "" {
			fmt.Println(e.heading)
		}
		if res := e.run(os.Stdout, opts); res != nil {
			jsonResults[e.name] = res
		}
		fmt.Printf("[%s done in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		writeResults(*jsonOut, jsonResults)
	}
}

// names lists every experiment name in list order.
func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
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
