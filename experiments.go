package roco

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/rocosim/roco/internal/analytic"
	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/report"
	"github.com/rocosim/roco/internal/stats"
)

// Options tunes the experiment drivers that regenerate the paper's tables
// and figures. The zero value is not useful; start from DefaultOptions.
type Options struct {
	// Width and Height set the mesh (paper: 8x8).
	Width, Height int
	// Warmup and Measure size each run in packets. The paper uses 20k and
	// 1M; the defaults trade statistical polish for a suite that finishes
	// in minutes. EXPERIMENTS.md records the values used for the shipped
	// numbers.
	Warmup, Measure int64
	// FaultTrials is the number of random fault placements averaged per
	// point in Figures 11, 12 and 14.
	FaultTrials int
	// Seed drives all randomness.
	Seed uint64
	// Workers caps the total simulation concurrency: how many CPUs the
	// drivers may occupy at once, shared between running independent
	// configurations in parallel and sharding individual runs (Shards).
	// 0 means GOMAXPROCS; 1 forces fully serial execution.
	Workers int
	// Shards applies intra-run sharding (Config.Shards) to every
	// simulation the drivers launch. Results are bit-identical for any
	// value; use it to speed up large-mesh experiments. The worker budget
	// is shared: with Shards=4 and Workers=8, two configurations run
	// concurrently, each on four shard workers.
	Shards int
	// ReferenceKernel runs every simulation on the ungated cycle loop
	// instead of the activity-gated kernel (see Config.ReferenceKernel).
	ReferenceKernel bool
	// Reliable arms the end-to-end reliable-delivery protocol in the
	// experiments that inject faults into live traffic (currently the
	// degradation experiment), surfacing goodput and recovery counters.
	Reliable bool
	// ChipsX..ChipH run every simulation on a hierarchical multi-chip
	// topology instead of the flat mesh (see Config.ChipsX et al.; Width
	// and Height are then ignored and derived from the chiplet grid).
	// D2DClass, D2DLatency and D2DGap shape the boundary links.
	// The degradation experiment additionally switches its injected fault
	// to a whole die-to-die interface when a chiplet grid is set.
	ChipsX, ChipsY, ChipW, ChipH int
	D2DClass                     D2DClass
	D2DLatency, D2DGap           int
}

// DefaultOptions returns the harness defaults (8x8 mesh, 2k+30k packets,
// 3 fault trials, GOMAXPROCS workers).
func DefaultOptions() Options {
	return Options{
		Width: 8, Height: 8,
		Warmup: 2000, Measure: 30000,
		FaultTrials: 3,
		Seed:        1,
	}
}

// QuickOptions returns a scaled-down configuration for smoke tests and
// benchmarks (4k packets).
func QuickOptions() Options {
	o := DefaultOptions()
	o.Warmup, o.Measure = 500, 4000
	o.FaultTrials = 2
	return o
}

// dims returns the global grid dimensions: derived from the chiplet grid
// on multichip runs, Width x Height otherwise.
func (o Options) dims() (w, h int) {
	if o.ChipsX > 0 {
		return o.ChipsX * o.ChipW, o.ChipsY * o.ChipH
	}
	return o.Width, o.Height
}

// effectiveWorkers resolves the Options concurrency budget: Workers when
// set, GOMAXPROCS otherwise.
func (o Options) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runAll executes the given configs and returns results in input order.
// The Options worker budget is shared between config-level parallelism and
// intra-run sharding: each config's shard workers are capped so that the
// configs running concurrently never occupy more than the budget in total.
func runAll(opts Options, cfgs []Config) []Result {
	out := make([]Result, len(cfgs))
	budget := opts.effectiveWorkers()

	// Cap every config's shard concurrency by the budget, and size the
	// config-level pool so concurrent-configs x shard-workers <= budget.
	perRun := 1
	for i := range cfgs {
		if cfgs[i].Shards > 1 {
			w := cfgs[i].Shards
			if cfgs[i].Workers > 0 && cfgs[i].Workers < w {
				w = cfgs[i].Workers
			}
			if w > budget {
				w = budget
			}
			cfgs[i].Workers = w
			if w > perRun {
				perRun = w
			}
		} else if cfgs[i].Workers == 0 {
			cfgs[i].Workers = 1
		}
	}
	workers := budget / perRun
	if workers < 1 {
		workers = 1
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers == 1 {
		for i, c := range cfgs {
			out[i] = Run(c)
		}
		return out
	}
	// The index channel is buffered to len(cfgs) and fully loaded before
	// the workers start, so dispatch never interleaves with (or blocks on)
	// worker startup; each worker writes out[i] for the indexes it drew,
	// keeping results in input order by construction.
	idx := make(chan int, len(cfgs))
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// baseConfig builds the common run configuration for an experiment point.
func (o Options) baseConfig(k RouterKind, alg Algorithm, tp TrafficPattern, rate float64) Config {
	cfg := Config{
		Width: o.Width, Height: o.Height,
		Router: k, Algorithm: alg, Traffic: tp,
		InjectionRate:   rate,
		WarmupPackets:   o.Warmup,
		MeasurePackets:  o.Measure,
		Seed:            o.Seed,
		ReferenceKernel: o.ReferenceKernel,
		Shards:          o.Shards,
	}
	if o.ChipsX > 0 {
		cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH = o.ChipsX, o.ChipsY, o.ChipW, o.ChipH
		cfg.D2DClass = o.D2DClass
		cfg.D2DLatency, cfg.D2DGap = o.D2DLatency, o.D2DGap
		// The chiplet grid drives the dimensions; Options.Width/Height are
		// ignored on multichip runs.
		cfg.Width, cfg.Height = 0, 0
	}
	return cfg
}

// Validate checks the configuration every experiment point shares (grid,
// run length, shards, chiplet knobs); the drivers panic on an invalid
// one, like Run.
func (o Options) Validate() error {
	return o.baseConfig(RoCo, XY, Uniform, 0).Validate()
}

// LatencyRates is the paper's x-axis for Figures 8-10.
var LatencyRates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}

// ContentionRates is the paper's x-axis for Figure 3.
var ContentionRates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60}

// FaultCounts is the paper's x-axis for Figures 11, 12 and 14.
var FaultCounts = []int{1, 2, 4}

// LatencySweep is one panel of Figures 8, 9 or 10: average latency versus
// injection rate for the three routers under one traffic pattern and one
// routing algorithm.
type LatencySweep struct {
	Traffic   TrafficPattern
	Algorithm Algorithm
	Rates     []float64
	// Latency[k][i] is the average latency of router k at Rates[i].
	Latency map[RouterKind][]float64
	// Saturated[k][i] marks points past the saturation throughput.
	Saturated map[RouterKind][]bool
}

// RunLatencySweep measures one latency-versus-load panel.
func RunLatencySweep(opts Options, tp TrafficPattern, alg Algorithm, rates []float64) LatencySweep {
	sweep := LatencySweep{
		Traffic: tp, Algorithm: alg, Rates: rates,
		Latency:   map[RouterKind][]float64{},
		Saturated: map[RouterKind][]bool{},
	}
	var cfgs []Config
	for _, k := range RouterKinds {
		for _, rate := range rates {
			cfg := opts.baseConfig(k, alg, tp, rate)
			// Past saturation a drain never finishes; cap the run at a
			// fixed horizon so the sweep terminates with the latency of
			// the packets that did complete.
			cfg.MaxCycles = 40 * (opts.Warmup + opts.Measure)
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(opts, cfgs)
	i := 0
	for _, k := range RouterKinds {
		sweep.Latency[k] = make([]float64, len(rates))
		sweep.Saturated[k] = make([]bool, len(rates))
		for j := range rates {
			sweep.Latency[k][j] = results[i].AvgLatency
			sweep.Saturated[k][j] = results[i].Saturated
			i++
		}
	}
	return sweep
}

// Render writes the sweep as a table and an ASCII plot.
func (s LatencySweep) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Average latency (cycles) — %s traffic, %s routing", s.Traffic, s.Algorithm),
		append([]string{"rate"}, routerHeaders()...)...)
	for j, r := range s.Rates {
		cells := []string{fmt.Sprintf("%.2f", r)}
		for _, k := range RouterKinds {
			mark := ""
			if s.Saturated[k][j] {
				mark = " (sat)"
			}
			cells = append(cells, fmt.Sprintf("%.2f%s", s.Latency[k][j], mark))
		}
		tbl.AddRow(cells...)
	}
	tbl.Render(w)

	plot := &report.Plot{
		Title:  fmt.Sprintf("Latency vs injection rate — %s traffic, %s routing", s.Traffic, s.Algorithm),
		XLabel: "flits/node/cycle", YLabel: "cycles", YMax: 100,
	}
	for _, k := range RouterKinds {
		series := &stats.Series{Label: k.String()}
		for j, r := range s.Rates {
			series.Append(r, s.Latency[k][j])
		}
		plot.Series = append(plot.Series, series)
	}
	plot.Render(w)
}

func routerHeaders() []string {
	h := make([]string, 0, len(RouterKinds))
	for _, k := range RouterKinds {
		h = append(h, k.String())
	}
	return h
}

// Figure8 reproduces the uniform-traffic latency panels (one sweep per
// routing algorithm).
func Figure8(opts Options) []LatencySweep { return latencyFigure(opts, Uniform) }

// Figure9 reproduces the self-similar-traffic latency panels.
func Figure9(opts Options) []LatencySweep { return latencyFigure(opts, SelfSimilar) }

// Figure10 reproduces the transpose-traffic latency panels.
func Figure10(opts Options) []LatencySweep { return latencyFigure(opts, Transpose) }

// FigureMPEG is the multimedia experiment the paper ran but omitted for
// space: the latency sweep under GoP-structured MPEG-2 video streams.
func FigureMPEG(opts Options) []LatencySweep { return latencyFigure(opts, MPEG2) }

func latencyFigure(opts Options, tp TrafficPattern) []LatencySweep {
	out := make([]LatencySweep, 0, len(Algorithms))
	for _, alg := range Algorithms {
		out = append(out, RunLatencySweep(opts, tp, alg, LatencyRates))
	}
	return out
}

// ContentionSweep is one panel of Figure 3: SA contention probability
// versus injection rate under uniform traffic.
type ContentionSweep struct {
	Algorithm Algorithm
	// Which dimension's inputs the panel reports: "row", "column" or
	// "all" (the adaptive panel combines both).
	Dimension string
	Rates     []float64
	Prob      map[RouterKind][]float64
}

// Figure3 reproduces the three contention panels: row-input contention
// under XY, column-input contention under XY, and combined contention
// under adaptive routing.
func Figure3(opts Options) []ContentionSweep {
	panels := []ContentionSweep{
		{Algorithm: XY, Dimension: "row", Rates: ContentionRates},
		{Algorithm: XY, Dimension: "column", Rates: ContentionRates},
		{Algorithm: Adaptive, Dimension: "all", Rates: ContentionRates},
	}
	// Two underlying run sets: XY and adaptive (the two XY panels share
	// the same runs, reading different counters).
	for pi := range panels {
		panels[pi].Prob = map[RouterKind][]float64{}
		for _, k := range RouterKinds {
			panels[pi].Prob[k] = make([]float64, len(ContentionRates))
		}
	}
	for _, alg := range []Algorithm{XY, Adaptive} {
		var cfgs []Config
		for _, k := range RouterKinds {
			for _, rate := range ContentionRates {
				cfg := opts.baseConfig(k, alg, Uniform, rate)
				cfg.MaxCycles = 40 * (opts.Warmup + opts.Measure)
				cfgs = append(cfgs, cfg)
			}
		}
		results := runAll(opts, cfgs)
		i := 0
		for _, k := range RouterKinds {
			for j := range ContentionRates {
				r := results[i]
				if alg == XY {
					panels[0].Prob[k][j] = r.ContentionRow
					panels[1].Prob[k][j] = r.ContentionCol
				} else {
					panels[2].Prob[k][j] = r.Contention
				}
				i++
			}
		}
	}
	return panels
}

// Render writes the contention panel.
func (s ContentionSweep) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Contention probability at %s inputs — %s routing, uniform traffic", s.Dimension, s.Algorithm),
		append([]string{"rate"}, routerHeaders()...)...)
	for j, r := range s.Rates {
		cells := []string{fmt.Sprintf("%.2f", r)}
		for _, k := range RouterKinds {
			cells = append(cells, fmt.Sprintf("%.3f", s.Prob[k][j]))
		}
		tbl.AddRow(cells...)
	}
	tbl.Render(w)
}

// FaultExperiment is one panel of Figures 11/12/14: completion
// probability, latency and PEF under 1, 2 and 4 random faults at 30%
// injection, averaged over several random fault placements.
type FaultExperiment struct {
	Class     FaultClass
	Algorithm Algorithm
	Counts    []int
	// Completion[k][i], Latency[k][i], PEF[k][i] are averages over trials
	// with Counts[i] faults.
	Completion map[RouterKind][]float64
	Latency    map[RouterKind][]float64
	PEF        map[RouterKind][]float64
}

// FaultInjectionRate is the offered load of the fault experiments (the
// paper's 30%).
const FaultInjectionRate = 0.30

// RunFaultExperiment measures one fault panel.
func RunFaultExperiment(opts Options, class FaultClass, alg Algorithm) FaultExperiment {
	exp := FaultExperiment{
		Class: class, Algorithm: alg, Counts: FaultCounts,
		Completion: map[RouterKind][]float64{},
		Latency:    map[RouterKind][]float64{},
		PEF:        map[RouterKind][]float64{},
	}
	trials := opts.FaultTrials
	if trials < 1 {
		trials = 1
	}
	width, height := opts.dims()
	var cfgs []Config
	for _, k := range RouterKinds {
		for _, count := range FaultCounts {
			for t := 0; t < trials; t++ {
				cfg := opts.baseConfig(k, alg, Uniform, FaultInjectionRate)
				// All routers see the same fault placements per trial.
				cfg.Faults = RandomFaults(class, count, width, height, opts.Seed+uint64(t)*1000+uint64(count))
				cfg.MaxCycles = 60 * (opts.Warmup + opts.Measure)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results := runAll(opts, cfgs)
	i := 0
	for _, k := range RouterKinds {
		exp.Completion[k] = make([]float64, len(FaultCounts))
		exp.Latency[k] = make([]float64, len(FaultCounts))
		exp.PEF[k] = make([]float64, len(FaultCounts))
		for ci := range FaultCounts {
			var comp, lat, pef float64
			for t := 0; t < trials; t++ {
				comp += results[i].Completion
				lat += results[i].AvgLatency
				pef += results[i].PEF
				i++
			}
			exp.Completion[k][ci] = comp / float64(trials)
			exp.Latency[k][ci] = lat / float64(trials)
			exp.PEF[k][ci] = pef / float64(trials)
		}
	}
	return exp
}

// Figure11 reproduces the completion-probability panels under
// router-centric (critical) faults, one per routing algorithm.
func Figure11(opts Options) []FaultExperiment {
	out := make([]FaultExperiment, 0, len(Algorithms))
	for _, alg := range Algorithms {
		out = append(out, RunFaultExperiment(opts, CriticalFaults, alg))
	}
	return out
}

// Figure12 reproduces the completion-probability panels under
// message-centric (non-critical) faults.
func Figure12(opts Options) []FaultExperiment {
	out := make([]FaultExperiment, 0, len(Algorithms))
	for _, alg := range Algorithms {
		out = append(out, RunFaultExperiment(opts, NonCriticalFaults, alg))
	}
	return out
}

// Figure14 reproduces the PEF panels: (a) critical faults, (b)
// non-critical faults, under deterministic routing.
func Figure14(opts Options) []FaultExperiment {
	return []FaultExperiment{
		RunFaultExperiment(opts, CriticalFaults, XY),
		RunFaultExperiment(opts, NonCriticalFaults, XY),
	}
}

// Render writes the fault panel (completion, latency and PEF).
func (e FaultExperiment) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Faults (%s) — %s routing, %.0f%% injection", e.Class, e.Algorithm, FaultInjectionRate*100),
		"faults", "metric", RouterKinds[0].String(), RouterKinds[1].String(), RouterKinds[2].String())
	for ci, n := range e.Counts {
		tbl.AddRow(fmt.Sprintf("%d", n), "completion",
			fmt.Sprintf("%.3f", e.Completion[Generic][ci]),
			fmt.Sprintf("%.3f", e.Completion[PathSensitive][ci]),
			fmt.Sprintf("%.3f", e.Completion[RoCo][ci]))
		tbl.AddRow("", "latency (cyc)",
			fmt.Sprintf("%.1f", e.Latency[Generic][ci]),
			fmt.Sprintf("%.1f", e.Latency[PathSensitive][ci]),
			fmt.Sprintf("%.1f", e.Latency[RoCo][ci]))
		tbl.AddRow("", "PEF",
			fmt.Sprintf("%.2f", e.PEF[Generic][ci]),
			fmt.Sprintf("%.2f", e.PEF[PathSensitive][ci]),
			fmt.Sprintf("%.2f", e.PEF[RoCo][ci]))
	}
	tbl.Render(w)
}

// EnergyResult is Figure 13: energy per packet at 30% injection for the
// three traffic patterns and three routers.
type EnergyResult struct {
	Patterns []TrafficPattern
	// EnergyNJ[k][i] is energy/packet of router k under Patterns[i].
	EnergyNJ map[RouterKind][]float64
}

// Figure13 reproduces the energy-per-packet comparison.
func Figure13(opts Options) EnergyResult {
	res := EnergyResult{
		Patterns: []TrafficPattern{Uniform, SelfSimilar, Transpose},
		EnergyNJ: map[RouterKind][]float64{},
	}
	var cfgs []Config
	for _, k := range RouterKinds {
		for _, tp := range res.Patterns {
			cfg := opts.baseConfig(k, XY, tp, FaultInjectionRate)
			cfg.MaxCycles = 40 * (opts.Warmup + opts.Measure)
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(opts, cfgs)
	i := 0
	for _, k := range RouterKinds {
		res.EnergyNJ[k] = make([]float64, len(res.Patterns))
		for j := range res.Patterns {
			res.EnergyNJ[k][j] = results[i].EnergyPerPacketNJ
			i++
		}
	}
	return res
}

// Render writes the energy comparison.
func (e EnergyResult) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Energy per packet (nJ) at %.0f%% injection, XY routing", FaultInjectionRate*100),
		append([]string{"traffic"}, routerHeaders()...)...)
	for j, tp := range e.Patterns {
		cells := []string{tp.String()}
		for _, k := range RouterKinds {
			cells = append(cells, fmt.Sprintf("%.3f", e.EnergyNJ[k][j]))
		}
		tbl.AddRow(cells...)
	}
	tbl.Render(w)
}

// DegradationExperiment is the dynamic companion of the static fault panels
// (Figures 11-14): one critical fault strikes each router architecture
// mid-measurement, and the windowed delivery rate around the event yields a
// post-fault recovery time per router. Routers that wedge instead of
// recovering report a watchdog diagnostic.
type DegradationExperiment struct {
	Algorithm  Algorithm
	FaultCycle int64
	Fault      Fault
	// Per router kind: the measured fault events, run completion, dropped
	// flits, and the watchdog diagnostic when the run wedged ("" otherwise).
	Events     map[RouterKind][]FaultEvent
	Completion map[RouterKind]float64
	Dropped    map[RouterKind]int64
	Watchdogs  map[RouterKind]string
	// Reliable reports whether the runs armed the reliable-delivery
	// protocol; the maps below are populated only then.
	Reliable      bool
	Retransmitted map[RouterKind]int64
	Recovered     map[RouterKind]int64
	GivenUp       map[RouterKind]int64
	ResidualLoss  map[RouterKind]int64
}

// RunDegradationExperiment measures online recovery from one runtime fault.
func RunDegradationExperiment(opts Options, alg Algorithm) DegradationExperiment {
	width, height := opts.dims()
	// The same critical fault for every router, struck roughly halfway
	// through the injection span (estimated from the offered load with the
	// default 4-flit packets). On a chiplet topology the fault is a whole
	// die-to-die interface instead: the first chip's east (or, on a 1-wide
	// chiplet grid, north) interface dies in one event, and the routers
	// degrade around the boundary cut.
	var flt Fault
	switch {
	case opts.ChipsX >= 2:
		flt = Fault{Node: 0, Component: D2DInterface, Side: SideEast}
	case opts.ChipsX > 0 && opts.ChipsY >= 2:
		flt = Fault{Node: 0, Component: D2DInterface, Side: SideNorth}
	default:
		flt = RandomFaults(CriticalFaults, 1, width, height, opts.Seed)[0]
	}
	pktsPerCycle := FaultInjectionRate * float64(width*height) / 4
	faultCycle := int64(float64(opts.Warmup+opts.Measure) / pktsPerCycle / 2)
	if faultCycle < 1 {
		faultCycle = 1
	}
	exp := DegradationExperiment{
		Algorithm: alg, FaultCycle: faultCycle, Fault: flt,
		Events:     map[RouterKind][]FaultEvent{},
		Completion: map[RouterKind]float64{},
		Dropped:    map[RouterKind]int64{},
		Watchdogs:  map[RouterKind]string{},
		Reliable:   opts.Reliable,
	}
	if opts.Reliable {
		exp.Retransmitted = map[RouterKind]int64{}
		exp.Recovered = map[RouterKind]int64{}
		exp.GivenUp = map[RouterKind]int64{}
		exp.ResidualLoss = map[RouterKind]int64{}
	}
	var cfgs []Config
	for _, k := range RouterKinds {
		cfg := opts.baseConfig(k, alg, Uniform, FaultInjectionRate)
		cfg.FaultSchedule = []TimedFault{{Cycle: faultCycle, Fault: flt}}
		cfg.AuditEvery = 64
		cfg.MaxCycles = 60 * (opts.Warmup + opts.Measure)
		cfg.Reliable = opts.Reliable
		cfgs = append(cfgs, cfg)
	}
	results := runAll(opts, cfgs)
	for i, k := range RouterKinds {
		exp.Events[k] = results[i].FaultEvents
		exp.Completion[k] = results[i].Completion
		exp.Dropped[k] = results[i].DroppedFlits
		exp.Watchdogs[k] = results[i].Watchdog
		if opts.Reliable {
			exp.Retransmitted[k] = results[i].Retransmissions
			exp.Recovered[k] = results[i].RecoveredPackets
			exp.GivenUp[k] = int64(len(results[i].GiveUps))
			exp.ResidualLoss[k] = results[i].ResidualLoss
		}
	}
	return exp
}

// Render writes the degradation panel and any watchdog diagnostics.
func (e DegradationExperiment) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Graceful degradation — %s at node %d, cycle %d, %s routing, %.0f%% injection",
			e.Fault.Component, e.Fault.Node, e.FaultCycle, e.Algorithm, FaultInjectionRate*100),
		append([]string{"metric"}, routerHeaders()...)...)
	cell := func(f func(RouterKind) string) []string {
		cells := make([]string, 0, len(RouterKinds))
		for _, k := range RouterKinds {
			cells = append(cells, f(k))
		}
		return cells
	}
	tbl.AddRow(append([]string{"completion"}, cell(func(k RouterKind) string {
		return fmt.Sprintf("%.3f", e.Completion[k])
	})...)...)
	tbl.AddRow(append([]string{"dropped flits"}, cell(func(k RouterKind) string {
		return fmt.Sprintf("%d", e.Dropped[k])
	})...)...)
	tbl.AddRow(append([]string{"recovery (cyc)"}, cell(func(k RouterKind) string {
		if len(e.Events[k]) == 0 {
			return "-"
		}
		ev := e.Events[k][0]
		if !ev.Recovered {
			return "never"
		}
		return fmt.Sprintf("%d", ev.RecoveryCycles)
	})...)...)
	tbl.AddRow(append([]string{"rate pre/floor"}, cell(func(k RouterKind) string {
		if len(e.Events[k]) == 0 {
			return "-"
		}
		ev := e.Events[k][0]
		return fmt.Sprintf("%.2f/%.2f", ev.PreRate, ev.FloorRate)
	})...)...)
	if e.Reliable {
		tbl.AddRow(append([]string{"goodput pre/floor"}, cell(func(k RouterKind) string {
			if len(e.Events[k]) == 0 {
				return "-"
			}
			ev := e.Events[k][0]
			return fmt.Sprintf("%.2f/%.2f", ev.PreGoodput, ev.FloorGoodput)
		})...)...)
		tbl.AddRow(append([]string{"retx/recovered"}, cell(func(k RouterKind) string {
			return fmt.Sprintf("%d/%d", e.Retransmitted[k], e.Recovered[k])
		})...)...)
		tbl.AddRow(append([]string{"given up/residual"}, cell(func(k RouterKind) string {
			return fmt.Sprintf("%d/%d", e.GivenUp[k], e.ResidualLoss[k])
		})...)...)
	}
	tbl.AddRow(append([]string{"wedged"}, cell(func(k RouterKind) string {
		if e.Watchdogs[k] == "" {
			return "no"
		}
		return "yes"
	})...)...)
	tbl.Render(w)
	for _, k := range RouterKinds {
		if wd := e.Watchdogs[k]; wd != "" {
			fmt.Fprintf(w, "\n%s %s\n", k, wd)
		}
	}
}

// Figure2 renders the VA-complexity comparison of the paper's Figure 2:
// arbiter counts and sizes for the generic and RoCo allocators under both
// routing-function regimes.
func Figure2(w io.Writer, vcsPerPort int) {
	tbl := report.NewTable(
		fmt.Sprintf("Figure 2 — VA arbiter complexity (v = %d VCs per port)", vcsPerPort),
		"design", "regime", "1st stage", "2nd stage")
	stage := func(n, fan int) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%d arbiters, %d:1", n, fan)
	}
	for _, pc := range []bool{false, true} {
		regime := "R => v"
		if pc {
			regime = "R => P"
		}
		g := analytic.GenericVAComplexity(vcsPerPort, pc)
		r := analytic.RoCoVAComplexity(vcsPerPort, pc)
		tbl.AddRow("generic", regime, stage(g.FirstStageArbiters, g.FirstStageFanIn), stage(g.SecondStageArbiters, g.SecondStageFanIn))
		tbl.AddRow("RoCo", regime, stage(r.FirstStageArbiters, r.FirstStageFanIn), stage(r.SecondStageArbiters, r.SecondStageFanIn))
	}
	tbl.Render(w)
}

// Table1 renders the RoCo VC buffer configurations of the paper's Table 1.
func Table1(w io.Writer) {
	tbl := report.NewTable("Table 1 — RoCo VC buffer configuration per routing algorithm",
		"routing", "Row P1", "Row P2", "Col P1", "Col P2")
	for _, alg := range Algorithms {
		cfg := core.ConfigFor(alg.internal())
		set := func(lo int) string {
			names := make([]string, 0, core.VCsPerSet)
			for i := lo; i < lo+core.VCsPerSet; i++ {
				names = append(names, cfg.Class[i].String())
			}
			return fmt.Sprintf("%s %s %s", names[0], names[1], names[2])
		}
		tbl.AddRow(alg.String(), set(0), set(3), set(6), set(9))
	}
	tbl.Render(w)
}

// Table2Result holds the non-blocking probabilities of the paper's Table 2
// with Monte-Carlo cross-checks.
type Table2Result struct {
	Generic, PathSensitive, RoCo   float64
	GenericMC, PathSensitiveMC, MC float64
	NonBlockingCount5              float64
	MonteCarloSamples              int
}

// Table2 computes the non-blocking probabilities analytically (paper
// Equation 1) and by Monte Carlo.
func Table2(samples int, seed uint64) Table2Result {
	rng := stats.NewRNG(seed)
	return Table2Result{
		Generic:           analytic.GenericNonBlocking(5),
		PathSensitive:     analytic.PathSensitiveNonBlocking(),
		RoCo:              analytic.RoCoNonBlocking(),
		GenericMC:         analytic.MonteCarloGeneric(5, samples, rng),
		PathSensitiveMC:   analytic.MonteCarloPathSensitive(samples, rng),
		MC:                analytic.MonteCarloRoCo(samples, rng),
		NonBlockingCount5: analytic.NonBlockingCount(5),
		MonteCarloSamples: samples,
	}
}

// Render writes Table 2.
func (t Table2Result) Render(w io.Writer) {
	tbl := report.NewTable("Table 2 — Non-blocking (maximal matching) probabilities (N=5)",
		"router", "analytic", "monte-carlo")
	tbl.AddRow("Generic", fmt.Sprintf("%.3f  (F(5)=%.0f)", t.Generic, t.NonBlockingCount5), fmt.Sprintf("%.3f", t.GenericMC))
	tbl.AddRow("Path-Sensitive", fmt.Sprintf("%.3f", t.PathSensitive), fmt.Sprintf("%.3f", t.PathSensitiveMC))
	tbl.AddRow("RoCo", fmt.Sprintf("%.3f", t.RoCo), fmt.Sprintf("%.3f", t.MC))
	tbl.Render(w)
}

// Table3 renders the component fault classification of the paper's
// Table 3.
func Table3(w io.Writer) {
	tbl := report.NewTable("Table 3 — Component fault classification and RoCo recovery",
		"component", "centricity", "regime", "critical path", "recoverable", "RoCo reaction")
	for _, c := range fault.AllComponents() {
		cl := fault.Classify(c)
		tbl.AddRow(c.String(), cl.Centricity.String(), cl.Regime.String(),
			fmt.Sprintf("%v", cl.Critical), fmt.Sprintf("%v", cl.RoCoRecoverable), cl.Recovery)
	}
	tbl.Render(w)
}
