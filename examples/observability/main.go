// Observability: the simulator's introspection tools — sampled packet
// journeys, a link-utilization heatmap, the per-component energy split,
// a windowed delivery time series that makes self-similar burstiness
// visible, and the epoch telemetry layer: Result.Telemetry time series
// plus the live Prometheus /metrics endpoint of a Sim.
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"github.com/rocosim/roco"
)

func main() {
	base := roco.Config{
		Router:         roco.RoCo,
		Algorithm:      roco.XY,
		InjectionRate:  0.25,
		WarmupPackets:  500,
		MeasurePackets: 8000,
		Seed:           3,
	}

	fmt.Println("== Sampled packet journeys (uniform traffic) ==")
	cfg := base
	cfg.Traffic = roco.Uniform
	// One Sim gives every view of a run: arm journey sampling before it
	// runs, then read the journeys and the per-node detail after.
	sim := roco.NewSim(cfg)
	sim.TracePackets(5)
	sim.Run()
	for _, tr := range sim.Traces() {
		fmt.Println(" ", tr)
	}

	fmt.Println()
	fmt.Println("== Link utilization and energy split ==")
	d := sim.Detailed()
	d.RenderHeatmap(os.Stdout)
	e := d.Energy
	fmt.Printf("energy: buffers %.0f nJ, crossbars %.0f nJ, links %.0f nJ, leakage %.0f nJ\n",
		e.BuffersNJ, e.CrossbarNJ, e.LinksNJ, e.LeakageNJ)

	fmt.Println()
	fmt.Println("== Windowed deliveries: uniform vs self-similar ==")
	for _, tp := range []roco.TrafficPattern{roco.Uniform, roco.SelfSimilar} {
		cfg := base
		cfg.Traffic = tp
		_, windows := roco.RunWindowed(cfg, 250)
		fmt.Printf("%-13s:", tp)
		for i, w := range windows {
			if i >= 12 {
				break
			}
			fmt.Printf(" %4d", w.Delivered)
		}
		fmt.Println("  (packets per 250-cycle window)")
	}
	fmt.Println()
	fmt.Println("Self-similar windows swing harder than uniform ones (per-node")
	fmt.Println("bursts partly smooth out in the 64-node aggregate); the dispersion")
	fmt.Println("gap is what differentiates the paper's Figure 9 from Figure 8.")

	// Epoch telemetry: set Config.TelemetryEvery and the Result grows a
	// time series of per-epoch counters — utilizations, VC occupancy by
	// path-set class, SA conflicts, early ejections, per-module energy.
	// The stream is identical whichever kernel ran the simulation, and
	// enabling it never changes the other Result fields.
	fmt.Println()
	fmt.Println("== Epoch telemetry (TelemetryEvery = 500) ==")
	cfg.TelemetryEvery = 500
	// The same series streams live: a Sim with telemetry exposes the
	// collector as a Prometheus /metrics handler while it runs (rocosim
	// -serve mounts exactly this, on checkpointed and resumed runs too).
	// Here an httptest server stands in for a real listener; the one run
	// gives both the series printed below and the scrape after it.
	sim = roco.NewSim(cfg)
	srv := httptest.NewServer(sim.MetricsHandler())
	defer srv.Close()
	tel := sim.Run().Telemetry
	fmt.Println("epoch  cycles  link-util  xbar-util  early-ej  occupancy by class")
	for i := range tel.Epochs {
		ep := &tel.Epochs[i]
		fmt.Printf("%5d  %6d  %9.3f  %9.3f  %8d  %v\n",
			ep.Index, ep.Cycles, ep.LinkUtilization, ep.CrossbarUtilization,
			ep.EarlyEjections, ep.Occupancy)
	}
	fmt.Printf("classes: %v; totals: %d flits over %d cycles, %.1f nJ\n",
		roco.VCClassNames, tel.Totals.Delivered, tel.Totals.Cycles, tel.Totals.Energy.TotalNJ())
	fmt.Println()
	mid := &tel.Epochs[len(tel.Epochs)/2]
	tel.RenderHeatmap(os.Stdout, mid)

	fmt.Println()
	fmt.Println("== Live /metrics (Sim.MetricsHandler, Prometheus text format) ==")
	resp, err := http.Get(srv.URL)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "roco_flits_") || strings.HasPrefix(line, "roco_link_utilization") ||
			strings.HasPrefix(line, "roco_energy_nanojoules_total{module=\"buffers\"}") {
			fmt.Println(" ", line)
		}
	}
}
