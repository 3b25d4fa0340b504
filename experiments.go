package roco

import (
	"errors"
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
	// ReferenceKernel runs every simulation on the ungated oracle instead
	// of the activity-gated kernel (see Config.ReferenceKernel).
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
	forEach(len(cfgs), budget/perRun, func(i int) { out[i] = Run(cfgs[i]) })
	return out
}

// forEach calls fn(i) for every i in [0, n), at most workers calls at a
// time; fn must be safe to run concurrently for distinct i.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// The index channel is buffered to n and fully loaded before the
	// workers start, so dispatch never interleaves with (or blocks on)
	// worker startup.
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// baseConfig builds the common run configuration for an experiment point.
// Past saturation a drain never finishes, so the run is capped at 40 times
// its packet budget and ends with the latency of the packets that did
// complete; drivers that need another horizon set their own MaxCycles.
func (o Options) baseConfig(k RouterKind, alg Algorithm, tp TrafficPattern, rate float64) Config {
	cfg := Config{
		Width: o.Width, Height: o.Height,
		Router: k, Algorithm: alg, Traffic: tp,
		InjectionRate:   rate,
		WarmupPackets:   o.Warmup,
		MeasurePackets:  o.Measure,
		MaxCycles:       40 * (o.Warmup + o.Measure),
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
// run length, shards, worker budget, chiplet knobs) and the fault trial
// count; each experiment panics on an invalid point, like Run.
func (o Options) Validate() error {
	cfg := o.baseConfig(RoCo, XY, Uniform, 0)
	cfg.Workers = o.Workers // the budget has Config.Workers' range
	err := cfg.Validate()
	if o.FaultTrials < 1 {
		err = errors.Join(err, fmt.Errorf("fault trials %d below 1", o.FaultTrials))
	}
	return err
}

// sweep runs n points for each paper router, all through one runAll, and
// returns each router's results in point order; point(k, i) builds point
// i of router k.
func (o Options) sweep(n int, point func(k RouterKind, i int) Config) map[RouterKind][]Result {
	cfgs := make([]Config, 0, len(RouterKinds)*n)
	for _, k := range RouterKinds {
		for i := 0; i < n; i++ {
			cfgs = append(cfgs, point(k, i))
		}
	}
	results := runAll(o, cfgs)
	out := make(map[RouterKind][]Result, len(RouterKinds))
	for j, k := range RouterKinds {
		out[k] = results[j*n : (j+1)*n : (j+1)*n]
	}
	return out
}

// perRouter reads one metric of a sweep's results, per router in point
// order.
func perRouter[T any](res map[RouterKind][]Result, metric func(Result) T) map[RouterKind][]T {
	out := make(map[RouterKind][]T, len(res))
	for k, rs := range res {
		out[k] = make([]T, len(rs))
		for i, r := range rs {
			out[k][i] = metric(r)
		}
	}
	return out
}

// routerRow returns one row of a point-by-router table: the label cells,
// then cell(k) for each paper router in RouterKinds order. With
// RouterKind.String as the cell it is the table's header.
func routerRow(cell func(k RouterKind) string, labels ...string) []string {
	for _, k := range RouterKinds {
		labels = append(labels, cell(k))
	}
	return labels
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
	res := opts.sweep(len(rates), func(k RouterKind, i int) Config {
		return opts.baseConfig(k, alg, tp, rates[i])
	})
	return LatencySweep{
		Traffic: tp, Algorithm: alg, Rates: rates,
		Latency:   perRouter(res, func(r Result) float64 { return r.AvgLatency }),
		Saturated: perRouter(res, func(r Result) bool { return r.Saturated }),
	}
}

// Render writes the sweep as a table and an ASCII plot.
func (s LatencySweep) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Average latency (cycles) — %s traffic, %s routing", s.Traffic, s.Algorithm),
		routerRow(RouterKind.String, "rate")...)
	for j, r := range s.Rates {
		tbl.AddRow(routerRow(func(k RouterKind) string {
			mark := ""
			if s.Saturated[k][j] {
				mark = " (sat)"
			}
			return fmt.Sprintf("%.2f%s", s.Latency[k][j], mark)
		}, fmt.Sprintf("%.2f", r))...)
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
// under adaptive routing. The two XY panels read different counters of the
// same runs.
func Figure3(opts Options) []ContentionSweep {
	run := func(alg Algorithm) map[RouterKind][]Result {
		return opts.sweep(len(ContentionRates), func(k RouterKind, i int) Config {
			return opts.baseConfig(k, alg, Uniform, ContentionRates[i])
		})
	}
	xy, adaptive := run(XY), run(Adaptive)
	return []ContentionSweep{
		{Algorithm: XY, Dimension: "row", Rates: ContentionRates,
			Prob: perRouter(xy, func(r Result) float64 { return r.ContentionRow })},
		{Algorithm: XY, Dimension: "column", Rates: ContentionRates,
			Prob: perRouter(xy, func(r Result) float64 { return r.ContentionCol })},
		{Algorithm: Adaptive, Dimension: "all", Rates: ContentionRates,
			Prob: perRouter(adaptive, func(r Result) float64 { return r.Contention })},
	}
}

// Render writes the contention panel.
func (s ContentionSweep) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Contention probability at %s inputs — %s routing, uniform traffic", s.Dimension, s.Algorithm),
		routerRow(RouterKind.String, "rate")...)
	for j, r := range s.Rates {
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.3f", s.Prob[k][j]) },
			fmt.Sprintf("%.2f", r))...)
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
	trials := max(opts.FaultTrials, 1)
	res := opts.sweep(len(FaultCounts)*trials, func(k RouterKind, i int) Config {
		count, t := FaultCounts[i/trials], i%trials
		cfg := opts.baseConfig(k, alg, Uniform, FaultInjectionRate)
		// All routers see the same fault placements per trial, drawn on the
		// grid the run simulates.
		grid := cfg.withDefaults()
		cfg.Faults = RandomFaults(class, count, grid.Width, grid.Height, opts.Seed+uint64(t)*1000+uint64(count))
		cfg.MaxCycles = 60 * (opts.Warmup + opts.Measure)
		return cfg
	})
	// mean averages one metric over each fault count's trials.
	mean := func(metric func(Result) float64) map[RouterKind][]float64 {
		out := make(map[RouterKind][]float64, len(RouterKinds))
		for _, k := range RouterKinds {
			out[k] = make([]float64, len(FaultCounts))
			for ci := range FaultCounts {
				var sum float64
				for _, r := range res[k][ci*trials : (ci+1)*trials] {
					sum += metric(r)
				}
				out[k][ci] = sum / float64(trials)
			}
		}
		return out
	}
	return FaultExperiment{
		Class: class, Algorithm: alg, Counts: FaultCounts,
		Completion: mean(func(r Result) float64 { return r.Completion }),
		Latency:    mean(func(r Result) float64 { return r.AvgLatency }),
		PEF:        mean(func(r Result) float64 { return r.PEF }),
	}
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
		routerRow(RouterKind.String, "faults", "metric")...)
	for ci, n := range e.Counts {
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.3f", e.Completion[k][ci]) },
			fmt.Sprintf("%d", n), "completion")...)
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.1f", e.Latency[k][ci]) },
			"", "latency (cyc)")...)
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.2f", e.PEF[k][ci]) },
			"", "PEF")...)
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
	patterns := []TrafficPattern{Uniform, SelfSimilar, Transpose}
	res := opts.sweep(len(patterns), func(k RouterKind, i int) Config {
		return opts.baseConfig(k, XY, patterns[i], FaultInjectionRate)
	})
	return EnergyResult{
		Patterns: patterns,
		EnergyNJ: perRouter(res, func(r Result) float64 { return r.EnergyPerPacketNJ }),
	}
}

// Render writes the energy comparison.
func (e EnergyResult) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Energy per packet (nJ) at %.0f%% injection, XY routing", FaultInjectionRate*100),
		routerRow(RouterKind.String, "traffic")...)
	for j, tp := range e.Patterns {
		tbl.AddRow(routerRow(func(k RouterKind) string { return fmt.Sprintf("%.3f", e.EnergyNJ[k][j]) },
			tp.String())...)
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
	// The grid the runs simulate: the base config's, after defaults.
	grid := opts.baseConfig(RoCo, alg, Uniform, FaultInjectionRate).withDefaults()
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
		flt = RandomFaults(CriticalFaults, 1, grid.Width, grid.Height, opts.Seed)[0]
	}
	pktsPerCycle := FaultInjectionRate * float64(grid.Width*grid.Height) / 4
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
	res := opts.sweep(1, func(k RouterKind, _ int) Config {
		cfg := opts.baseConfig(k, alg, Uniform, FaultInjectionRate)
		cfg.FaultSchedule = []TimedFault{{Cycle: faultCycle, Fault: flt}}
		cfg.AuditEvery = 64
		cfg.MaxCycles = 60 * (opts.Warmup + opts.Measure)
		cfg.Reliable = opts.Reliable
		return cfg
	})
	for _, k := range RouterKinds {
		r := res[k][0]
		exp.Events[k] = r.FaultEvents
		exp.Completion[k] = r.Completion
		exp.Dropped[k] = r.DroppedFlits
		exp.Watchdogs[k] = r.Watchdog
		if opts.Reliable {
			exp.Retransmitted[k] = r.Retransmissions
			exp.Recovered[k] = r.RecoveredPackets
			exp.GivenUp[k] = int64(len(r.GiveUps))
			exp.ResidualLoss[k] = r.ResidualLoss
		}
	}
	return exp
}

// Render writes the degradation panel and any watchdog diagnostics.
func (e DegradationExperiment) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Graceful degradation — %s at node %d, cycle %d, %s routing, %.0f%% injection",
			e.Fault.Component, e.Fault.Node, e.FaultCycle, e.Algorithm, FaultInjectionRate*100),
		routerRow(RouterKind.String, "metric")...)
	row := func(metric string, cell func(RouterKind) string) { tbl.AddRow(routerRow(cell, metric)...) }
	row("completion", func(k RouterKind) string { return fmt.Sprintf("%.3f", e.Completion[k]) })
	row("dropped flits", func(k RouterKind) string { return fmt.Sprintf("%d", e.Dropped[k]) })
	row("recovery (cyc)", func(k RouterKind) string {
		if len(e.Events[k]) == 0 {
			return "-"
		}
		ev := e.Events[k][0]
		if !ev.Recovered {
			return "never"
		}
		return fmt.Sprintf("%d", ev.RecoveryCycles)
	})
	row("rate pre/floor", func(k RouterKind) string {
		if len(e.Events[k]) == 0 {
			return "-"
		}
		ev := e.Events[k][0]
		return fmt.Sprintf("%.2f/%.2f", ev.PreRate, ev.FloorRate)
	})
	if e.Reliable {
		row("goodput pre/floor", func(k RouterKind) string {
			if len(e.Events[k]) == 0 {
				return "-"
			}
			ev := e.Events[k][0]
			return fmt.Sprintf("%.2f/%.2f", ev.PreGoodput, ev.FloorGoodput)
		})
		row("retx/recovered", func(k RouterKind) string { return fmt.Sprintf("%d/%d", e.Retransmitted[k], e.Recovered[k]) })
		row("given up/residual", func(k RouterKind) string { return fmt.Sprintf("%d/%d", e.GivenUp[k], e.ResidualLoss[k]) })
	}
	row("wedged", func(k RouterKind) string {
		if e.Watchdogs[k] == "" {
			return "no"
		}
		return "yes"
	})
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
