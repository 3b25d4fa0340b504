// Command rocoperf is the repository's performance benchmark. It runs one
// workload through the public roco and campaign APIs for a time budget,
// checks that the simulated results are right, and prints every metric by
// name with its unit, ending with one JSON line. With -trace 1 it instead
// runs the workload traced and prints the per-layer metrics. README.md
// describes the workloads, the metrics and how to read them.
//
// Usage, from the repository root:
//
//	bash cmd/rocoperf/run.sh -workload paper8x8 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the simulator
// sees them. Rates are taken over host time spent running simulations,
// excluding set-up, which setup_s reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"pkts_per_s", "pkts/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"network.new_ms", "ms"},
	{"network.step_us_p50", "us"},
	{"network.step_us_p99", "us"},
	{"network.self_share", "ratio"},
	{"network.ticks_per_step", "count"},
	{"router.tick_ns_mean", "ns"},
	{"router.tick_ns_mean.generic", "ns"},
	{"router.tick_ns_mean.pathsensitive", "ns"},
	{"router.tick_ns_mean.roco", "ns"},
	{"router.tick_share", "ratio"},
	{"router.claim_ok_ratio", "ratio"},
	{"router.inject_accept_ratio", "ratio"},
	{"router.idle_tick_ratio", "ratio"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.bytes_per_node", "bytes"},
	{"campaign.jobs_per_s", "jobs/s"},
	{"campaign.submit_us_p50", "us"},
	{"campaign.queue_wait_s_p50", "s"},
	{"campaign.run_s_p50", "s"},
	{"campaign.snapshots_per_job", "count"},
	{"campaign.jobs_failed", "count"},
	{"sim.cycles", "count"},
	{"sim.delivered_pkts", "count"},
	{"router.sa_contention", "ratio"},
	{"protocol.retransmissions", "count"},
	{"protocol.giveups", "count"},
	{"fault.events", "count"},
	{"d2d.flits", "count"},
	{"telemetry.epochs", "count"},
	{"trace.overhead_pct", "%"},
}

// minUnits is the fewest units a measured run repeats, so that every
// metric is a median of at least three.
const minUnits = 3

// options configure one run.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	smoke    bool
	// dataDir holds the campaign workload's job directories.
	dataDir string
	golden  map[string]string
}

// unitStats is what one unit of work measured.
type unitStats struct {
	ops, failed int
	problems    []string
	setups      []float64 // seconds per set-up
	cycles      float64   // simulated cycles
	pkts        float64   // delivered packets
	seconds     float64   // host time the rates are taken over
	// digest covers the unit's results; every unit of a run must match the
	// first. Traced units leave it empty and compare snapshots instead.
	digest string
}

// workload is one benchmark workload: a unit of work repeated identically.
type workload interface {
	// unit runs the unit once. keep asks it to also keep the results and
	// final snapshots that the checks and traced units compare against; a
	// tracer asks for a traced run that records into it.
	unit(keep bool, tr *tracer) unitStats
	// check runs the correctness checks, after a kept unit.
	check(rep *report)
	// layers sets the per-layer metrics from the traced units.
	layers(rep *report, tr *tracer)
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records a failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// add folds a unit's operation counts into the report.
func (r *report) add(st unitStats) {
	r.attempted += st.ops
	r.failed += st.failed
	r.problems = append(r.problems, st.problems...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result returns the report as the metrics of defs.
func (r *report) result(defs []metricDef) result {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// run executes one benchmark run and returns its report and, when traced,
// the spans it recorded.
func run(o options) (*report, *tracer, error) {
	w := newWorkload(o)
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := newReport()
	r := &runner{w: w, rep: rep}
	var tr *tracer
	if o.trace {
		r.unit(true, nil)
		tr = traced(r, o)
	} else {
		if err := measure(r, o); err != nil {
			return nil, nil, err
		}
		// Kept after the timed part, so that encoding snapshots for the
		// checks never counts in the peak RSS.
		r.unit(true, nil)
	}
	w.check(rep)
	return rep, tr, nil
}

// runner runs a workload's units and checks that every untraced unit gives
// the first one's results.
type runner struct {
	w     workload
	rep   *report
	first string
	units int
}

func (r *runner) unit(keep bool, tr *tracer) unitStats {
	// Every unit starts from a collected heap, so one unit's garbage is not
	// charged to the next.
	runtime.GC()
	st := r.w.unit(keep, tr)
	r.rep.add(st)
	if tr == nil {
		if r.units == 0 {
			r.first = st.digest
		} else if st.digest != r.first {
			r.rep.fail("unit %d results differ from the first unit's", r.units)
		}
		r.units++
	}
	return st
}

// measure repeats the workload's unit for the time budget and sets the
// end-to-end metrics from the medians over units.
func measure(r *runner, o options) error {
	var cps, pps, setups []float64
	var rss float64
	start := time.Now()
	// A failed unit makes the run incorrect, so it ends the repetition.
	for n := 0; r.rep.failed == 0 && (n < minUnits || time.Since(start) < o.budget); n++ {
		st := r.unit(false, nil)
		if n == 0 {
			// The peak of one unit in a fresh process, however many units
			// the budget holds.
			var err error
			if rss, err = peakRSSMB(); err != nil {
				return err
			}
		}
		if st.seconds > 0 {
			cps = append(cps, st.cycles/st.seconds)
			pps = append(pps, st.pkts/st.seconds)
		}
		setups = append(setups, st.setups...)
	}
	v := r.rep.values
	v["setup_s"] = median(setups)
	v["sim_cycles_per_s"] = median(cps)
	v["pkts_per_s"] = median(pps)
	v["peak_rss_mb"] = rss
	fmt.Fprintf(os.Stderr, "%d units, sim_cycles_per_s %.4g (IQR %.1f%% of median), setup_s %s\n",
		len(cps), cps, 100*spread(cps), describeTail(setups, "s"))
	return nil
}

// traced runs untraced units for half the budget, then as many traced
// units, and sets the per-layer metrics plus the tracing overhead.
func traced(r *runner, o options) *tracer {
	var plain, withTrace []float64
	start := time.Now()
	for n := 0; r.rep.failed == 0 && (n == 0 || time.Since(start) < o.budget/2); n++ {
		if st := r.unit(false, nil); st.seconds > 0 {
			plain = append(plain, st.cycles/st.seconds)
		}
	}
	tr := newTracer()
	for range plain {
		if st := r.unit(false, tr); st.seconds > 0 {
			withTrace = append(withTrace, st.cycles/st.seconds)
		}
	}
	if t := median(withTrace); t > 0 {
		r.rep.values["trace.overhead_pct"] = (median(plain)/t - 1) * 100
	}
	r.w.layers(r.rep, tr)
	return tr
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// printReport writes the human-readable report to w and the JSON result
// line to out.
func printReport(w, out io.Writer, rep *report, defs []metricDef) error {
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	res := rep.result(defs)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "seconds to repeat the workload's unit for (at least three units run)")
	traceFlag := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	scale := flag.String("scale", "full", "full, or smoke for a seconds-long check of every code path")
	dataDir := flag.String("data", ".bench_build/rocoperf-data", "scratch directory for the campaign workload")
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintf(os.Stderr, "rocoperf: %s\n", msg)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usage("unexpected arguments: " + strings.Join(flag.Args(), " "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		usage("-trace must be 0 or 1")
	}
	if *scale != "full" && *scale != "smoke" {
		usage("-scale must be full or smoke")
	}
	if *seconds < 0 {
		usage("-seconds must not be negative")
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rocoperf: %v\n", err)
		os.Exit(1)
	}
	o := options{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		smoke:    *scale == "smoke",
		dataDir:  *dataDir,
		golden:   golden,
	}
	if !slices.Contains(workloadNames, o.workload) {
		usage(fmt.Sprintf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}
	rep, tr, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rocoperf: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if *spans != "" {
			if err := tr.write(*spans); err != nil {
				fmt.Fprintf(os.Stderr, "rocoperf: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if err := printReport(os.Stderr, os.Stdout, rep, defs); err != nil {
		fmt.Fprintf(os.Stderr, "rocoperf: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}
