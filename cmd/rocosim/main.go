// Command rocosim runs a single on-chip-network simulation and prints its
// measurements. It exposes every knob of the public API: router
// architecture, routing algorithm, traffic pattern, injection rate, mesh
// size, run length, fault injection, and epoch telemetry.
//
// Examples:
//
//	rocosim -router roco -routing xy -traffic uniform -rate 0.25
//	rocosim -router generic -routing adaptive -traffic transpose -rate 0.3
//	rocosim -router roco -faults 2 -faultclass critical -rate 0.3 -seed 7
//	rocosim -router roco -faults-at 3000,7000 -audit 64 -v
//	rocosim -router roco -fault-rate 20000 -fault-horizon 60000 -v
//	rocosim -topology multichipmesh -chips 2x2 -chip-size 4x4 -d2d-class serial -v
//	rocosim -topology multichipmesh -chips 2x2 -chip-size 4x4 -d2d-fault 3:east@5000 -reliable -v
//	rocosim -router roco -telemetry-every 256 -json
//	rocosim -router roco -rate 0.30 -serve 127.0.0.1:9090
//	rocosim -router roco -trace 3 -heatmap -v -checkpoint-every 500 -checkpoint-dir snaps
package main

import (
	"errors"
	_ "expvar" // registers /debug/vars on the -serve endpoint
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -serve endpoint
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/serve"
	"github.com/rocosim/roco/internal/topology"
)

// Exit codes: 0 success, 2 usage or runtime error, 3 livelock watchdog
// fired (the run terminated through the inactivity rule with traffic
// wedged), 128+signum when a signal stopped a checkpointed run after the
// final snapshot was flushed.
const exitWatchdog = 3

func main() {
	var (
		routerName  = flag.String("router", "roco", "router architecture: generic, pathsensitive, roco, pdr (xy only)")
		routingName = flag.String("routing", "xy", "routing algorithm: xy, xyyx, adaptive")
		trafficName = flag.String("traffic", "uniform", "traffic pattern: uniform, transpose, selfsimilar, mpeg2, bitcomplement, hotspot")
		rate        = flag.Float64("rate", 0.25, "injection rate in flits/node/cycle")
		topoName    = flag.String("topology", "mesh", "topology: mesh, torus, multichipmesh, multichiptorus (multichip* need -chips and -chip-size)")
		width       = flag.Int("width", 8, "mesh width (single-die topologies; multichip derives it from -chips x -chip-size)")
		height      = flag.Int("height", 8, "mesh height (single-die topologies)")
		chips       = flag.String("chips", "", "chiplet grid as CXxCY, e.g. 2x2 (multichip topologies)")
		chipSize    = flag.String("chip-size", "", "nodes per chiplet as WxH, e.g. 4x4 (multichip topologies)")
		d2dClass    = flag.String("d2d-class", "parallel", "die-to-die boundary link class: parallel, serial")
		d2dLatency  = flag.Int("d2d-latency", 0, "die-to-die link latency in cycles (0 = class default)")
		d2dGap      = flag.Int("d2d-gap", 0, "cycles between flits entering a die-to-die link (0 = class default)")
		d2dFaults   = flag.String("d2d-fault", "", "die-to-die interface faults: comma-separated node:side[@cycle] entries (side north/east/south/west; omit @cycle for a static fault)")
		warmup      = flag.Int64("warmup", 2000, "warm-up packets before measurement")
		measure     = flag.Int64("measure", 30000, "measured packets")
		seed        = flag.Uint64("seed", 1, "random seed")
		faults      = flag.Int("faults", 0, "number of random permanent faults to inject")
		faultClass  = flag.String("faultclass", "critical", "random fault population: critical, noncritical")
		faultsAt    = flag.String("faults-at", "", "comma-separated cycles; inject one random -faultclass fault at each, mid-run")
		faultRate   = flag.Float64("fault-rate", 0, "mean cycles between runtime faults (Poisson schedule; 0 disables)")
		faultHor    = flag.Int64("fault-horizon", 50000, "last cycle at which -fault-rate may strike")
		audit       = flag.Int64("audit", 0, "cycles between flit-conservation audits (0 audits at termination only)")
		flits       = flag.Int("flits", 4, "flits per packet")
		hotspot     = flag.Int("hotspot", 27, "hotspot node (hotspot traffic)")
		hotFrac     = flag.Float64("hotfrac", 0.2, "fraction of traffic sent to the hotspot")
		reliable    = flag.Bool("reliable", false, "enable end-to-end reliable delivery (source retransmission, duplicate suppression, fault-region give-up)")
		retxTimeout = flag.Int64("retx-timeout", 0, "base retransmission timeout in cycles (0 = default; needs -reliable)")
		retxMax     = flag.Int64("retx-max-timeout", 0, "backoff cap in cycles (0 = default; needs -reliable)")
		retxRetries = flag.Int("retx-retries", 0, "max retransmissions per packet (0 = default; needs -reliable)")
		jsonOut     = flag.Bool("json", false, "emit the full result as JSON on stdout instead of the human summary")
		verbose     = flag.Bool("v", false, "print the full result breakdown")
		heatmap     = flag.Bool("heatmap", false, "print a per-node link-utilization heatmap")
		tracePkts   = flag.Int("trace", 0, "sample and print this many packet journeys")
		teleEvery   = flag.Int64("telemetry-every", 0, "cycles between telemetry epochs (0 disables; the series lands in the -json result and on the -serve endpoint)")
		serveAddr   = flag.String("serve", "", "serve live telemetry over HTTP at this address while the run executes (/metrics Prometheus text, /healthz, /debug/vars, /debug/pprof); keeps serving final values until interrupted")
		kernel      = flag.String("kernel", "gated", "simulation kernel: gated (activity-gated, default) or reference (tick everything)")
		shards      = flag.Int("shards", 1, "split the run across this many mesh shards ticking in parallel (bit-identical results for any value)")
		workers     = flag.Int("workers", 0, "goroutines executing shard ticks (0 = one per shard up to GOMAXPROCS)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		ckptEvery   = flag.Int64("checkpoint-every", 0, "write a crash-safe snapshot every this many cycles (needs -checkpoint-dir)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for snapshot files; SIGINT/SIGTERM flush a final snapshot there and exit 128+signum")
		resumeRun   = flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint-dir (config must match; kernel/shards/workers may differ)")
	)
	flag.Parse()
	// Config would default a zero size to 8, while the random faults and
	// the summary line below read these flags.
	if *width < 1 || *height < 1 {
		fatalf("mesh %dx%d: -width and -height must be positive", *width, *height)
	}
	// Values that would silently change the run: Config defaults zero
	// -flits to 4, the run loops skip a negative schedule or period, and a
	// negative fault count draws no faults at all.
	switch {
	case *flits < 1:
		fatalf("-flits %d: must be positive", *flits)
	case *faults < 0:
		fatalf("-faults %d: must be non-negative", *faults)
	case !(*faultRate >= 0) || *faultHor < 0:
		fatalf("-fault-rate %v, -fault-horizon %d: must be non-negative", *faultRate, *faultHor)
	case *ckptEvery < 0:
		fatalf("-checkpoint-every %d: must be non-negative", *ckptEvery)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	cfg := roco.Config{
		Width: *width, Height: *height,
		InjectionRate:   *rate,
		FlitsPerPacket:  *flits,
		WarmupPackets:   *warmup,
		MeasurePackets:  *measure,
		Seed:            *seed,
		HotspotNode:     *hotspot,
		HotspotFraction: *hotFrac,
		Reliable:        *reliable,
		Shards:          *shards,
		Workers:         *workers,
		TelemetryEvery:  *teleEvery,
	}
	if *reliable {
		cfg.RetransmitTimeout = *retxTimeout
		cfg.RetransmitMaxTimeout = *retxMax
		cfg.RetransmitMaxRetries = *retxRetries
	} else if *retxTimeout != 0 || *retxMax != 0 || *retxRetries != 0 {
		fatalf("-retx-* flags need -reliable")
	}

	switch strings.ToLower(*kernel) {
	case "gated":
	case "reference":
		cfg.ReferenceKernel = true
	default:
		fatalf("unknown kernel %q (want gated, reference)", *kernel)
	}

	multichip := false
	switch strings.ToLower(*topoName) {
	case "mesh":
	case "torus":
		cfg.Torus = true
	case "multichipmesh", "multichip-mesh":
		multichip = true
	case "multichiptorus", "multichip-torus":
		multichip = true
		cfg.Torus = true
	default:
		fatalf("unknown topology %q (want mesh, torus, multichipmesh, multichiptorus)", *topoName)
	}
	if multichip {
		if *chips == "" || *chipSize == "" {
			fatalf("-topology %s needs -chips and -chip-size", *topoName)
		}
		var err error
		if cfg.ChipsX, cfg.ChipsY, err = topology.ParseGrid(*chips); err != nil {
			fatalf("-chips: %v", err)
		}
		if cfg.ChipW, cfg.ChipH, err = topology.ParseGrid(*chipSize); err != nil {
			fatalf("-chip-size: %v", err)
		}
		if err := cfg.D2DClass.UnmarshalText([]byte(*d2dClass)); err != nil {
			fatalf("-d2d-class: %v", err)
		}
		cfg.D2DLatency, cfg.D2DGap = *d2dLatency, *d2dGap
		// The chiplet grid derives the dimensions; explicit -width/-height
		// pass through so Validate can flag a mismatch.
		if !flagWasSet("width") {
			cfg.Width = 0
		}
		if !flagWasSet("height") {
			cfg.Height = 0
		}
	} else if *chips != "" || *chipSize != "" {
		fatalf("-chips and -chip-size need a multichip -topology")
	} else if flagWasSet("d2d-class") || flagWasSet("d2d-latency") || flagWasSet("d2d-gap") {
		fatalf("-d2d-class/-d2d-latency/-d2d-gap need a multichip -topology")
	}
	// Effective global dimensions, for random fault placement and the
	// summary line.
	gridW, gridH := *width, *height
	if multichip {
		gridW, gridH = cfg.ChipsX*cfg.ChipW, cfg.ChipsY*cfg.ChipH
	}

	// The enums' TextUnmarshalers parse the flags, so the CLI and JSON job
	// specs accept exactly the same tokens and aliases.
	if cfg.Router.UnmarshalText([]byte(*routerName)) != nil {
		fatalf("unknown router %q (want generic, pathsensitive, roco, pdr)", *routerName)
	}
	if cfg.Algorithm.UnmarshalText([]byte(*routingName)) != nil {
		fatalf("unknown routing %q (want xy, xyyx, adaptive)", *routingName)
	}
	if cfg.Traffic.UnmarshalText([]byte(*trafficName)) != nil {
		fatalf("unknown traffic %q", *trafficName)
	}
	var class roco.FaultClass
	if class.UnmarshalText([]byte(*faultClass)) != nil {
		fatalf("unknown fault class %q (want critical, noncritical)", *faultClass)
	}
	cfg.AuditEvery = *audit
	if *faultsAt != "" && *faultRate > 0 {
		fatalf("-faults-at and -fault-rate are mutually exclusive")
	}
	var faultCycles []int64
	if *faultsAt != "" {
		for _, s := range strings.Split(*faultsAt, ",") {
			c, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil || c < 0 {
				fatalf("bad -faults-at entry %q (want non-negative cycles)", s)
			}
			faultCycles = append(faultCycles, c)
		}
	}
	if *d2dFaults != "" {
		if !multichip {
			fatalf("-d2d-fault needs a multichip -topology")
		}
		for _, spec := range strings.Split(*d2dFaults, ",") {
			f, cycle, err := parseD2DFault(spec)
			if err != nil {
				fatalf("-d2d-fault: %v", err)
			}
			if cycle < 0 {
				cfg.Faults = append(cfg.Faults, f)
			} else {
				cfg.FaultSchedule = append(cfg.FaultSchedule, roco.TimedFault{Cycle: cycle, Fault: f})
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}
	// Random faults are drawn on the validated grid and go ahead of the
	// -d2d-fault entries.
	if nodes := gridW * gridH; *faults > nodes || len(faultCycles) > nodes {
		fatalf("more random faults than the grid's %d nodes", nodes)
	}
	if *faults > 0 {
		cfg.Faults = append(roco.RandomFaults(class, *faults, gridW, gridH, *seed), cfg.Faults...)
	}
	var timed []roco.TimedFault
	if *faultRate > 0 {
		timed = roco.PoissonFaultSchedule(class, *faultRate, *faultHor, gridW, gridH, *seed)
	}
	// One random fault per -faults-at cycle, at distinct nodes.
	for i, f := range roco.RandomFaults(class, len(faultCycles), gridW, gridH, *seed) {
		timed = append(timed, roco.TimedFault{Cycle: faultCycles[i], Fault: f})
	}
	cfg.FaultSchedule = append(timed, cfg.FaultSchedule...)
	if !*jsonOut {
		for _, f := range cfg.Faults {
			fmt.Printf("fault: %s\n", describeFault(f))
		}
		for _, tf := range cfg.FaultSchedule {
			fmt.Printf("scheduled fault: cycle %d, %s\n", tf.Cycle, describeFault(tf.Fault))
		}
	}

	serveTelemetry := *serveAddr != "" && cfg.TelemetryEvery == 0
	if serveTelemetry {
		// A served run without telemetry would have nothing on /metrics.
		cfg.TelemetryEvery = 256
	}
	checkpointing := *ckptEvery > 0 || *ckptDir != "" || *resumeRun
	if checkpointing && *ckptDir == "" {
		fatalf("-checkpoint-every and -resume need -checkpoint-dir")
	}

	// One Sim serves every flag combination: traces, the per-node view and
	// the live endpoint all read the same run, checkpointed or not.
	var sim *roco.Sim
	if *resumeRun {
		var err error
		if sim, err = roco.ResumeLatest(*ckptDir, cfg); err != nil {
			if serveTelemetry && errors.Is(err, roco.ErrConfigMismatch) {
				err = fmt.Errorf("%w; -serve turned telemetry on (every 256 cycles) and telemetry is part of the snapshot's configuration, "+
					"so resume with the checkpointed run's -telemetry-every, or without -serve if it had none", err)
			}
			fatalf("resume: %v", err)
		}
		fmt.Fprintf(os.Stderr, "rocosim: resumed from %s at cycle %d\n", *ckptDir, sim.Cycle())
	} else {
		sim = roco.NewSim(cfg)
	}
	sim.TracePackets(*tracePkts)
	if *serveAddr != "" {
		serveMetrics(sim, *serveAddr)
	}
	var res roco.Result
	if checkpointing {
		res = runCheckpointed(sim, *ckptDir, *ckptEvery, *jsonOut)
	} else {
		res = sim.Run()
	}
	if *jsonOut {
		// The Result carries everything downstream tools need: summary
		// metrics, the drop breakdown, reliability counters with give-ups,
		// the per-fault log, the watchdog report, and the telemetry epoch
		// series when -telemetry-every is set.
		if err := roco.WriteJSON(os.Stdout, res); err != nil {
			fatalf("json: %v", err)
		}
		exitIfWatchdog(res)
		lingerIfServing(*serveAddr)
		return
	}
	var detail roco.Detailed
	if *verbose || *heatmap {
		detail = sim.Detailed()
	}
	shape := fmt.Sprintf("%dx%d %s", gridW, gridH, strings.ToLower(*topoName))
	if multichip {
		shape = fmt.Sprintf("%dx%d chiplets of %dx%d (%s, d2d %s)",
			cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH, strings.ToLower(*topoName), cfg.D2DClass)
	}
	fmt.Printf("%s | %s routing | %s traffic | rate %.2f | %s\n",
		cfg.Router, cfg.Algorithm, cfg.Traffic, *rate, shape)
	fmt.Printf("  avg latency      %10.2f cycles\n", res.AvgLatency)
	fmt.Printf("  completion       %10.4f\n", res.Completion)
	fmt.Printf("  throughput       %10.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("  energy/packet    %10.4f nJ\n", res.EnergyPerPacketNJ)
	fmt.Printf("  PEF              %10.2f nJ*cycles/prob\n", res.PEF)
	if *verbose {
		fmt.Printf("  p95 latency      %10.1f cycles\n", res.P95Latency)
		fmt.Printf("  p99 latency      %10.1f cycles\n", res.P99Latency)
		fmt.Printf("  max latency      %10.1f cycles\n", res.MaxLatency)
		fmt.Printf("  source queue     %10.2f cycles (included in latency)\n", res.SourceQueueDelay)
		fmt.Printf("  contention row   %10.4f\n", res.ContentionRow)
		fmt.Printf("  contention col   %10.4f\n", res.ContentionCol)
		fmt.Printf("  dynamic energy   %10.2f nJ\n", res.DynamicNJ)
		fmt.Printf("  leakage energy   %10.2f nJ\n", res.LeakageNJ)
		fmt.Printf("  delivered        %10d / %d packets\n", res.DeliveredPackets, res.GeneratedPackets)
		fmt.Printf("  simulated        %10d cycles (saturated=%v)\n", res.Cycles, res.Saturated)
		e := detail.Energy
		fmt.Printf("  energy split: buffers %.0f, crossbar %.0f, links %.0f, arbitration %.0f, routing %.0f, ejection %.0f, leakage %.0f nJ\n",
			e.BuffersNJ, e.CrossbarNJ, e.LinksNJ, e.ArbitrationNJ, e.RoutingNJ, e.EjectionNJ, e.LeakageNJ)
	}
	for _, ev := range res.FaultEvents {
		status := "never recovered"
		if ev.Recovered {
			status = fmt.Sprintf("recovered in %d cycles (%.3f -> floor %.3f -> %.3f flits/cycle)",
				ev.RecoveryCycles, ev.PreRate, ev.FloorRate, ev.PostRate)
		}
		fmt.Printf("  fault @%-8d node %d %-10s %s\n", ev.Cycle, ev.Fault.Node, ev.Fault.Component, status)
	}
	if res.DroppedFlits > 0 || res.BrokenPackets > 0 {
		fmt.Printf("  dropped          %10d flits (%d broken packets; %d unroutable, %d in-flight, %d dead-node)\n",
			res.DroppedFlits, res.BrokenPackets, res.DroppedUnroutable, res.DroppedInFlight, res.DroppedDeadNode)
	}
	if *reliable {
		fmt.Printf("  reliability      %10d retransmitted, %d recovered, %d duplicates suppressed, %d given up, residual loss %d\n",
			res.Retransmissions, res.RecoveredPackets, res.DuplicatePackets, len(res.GiveUps), res.ResidualLoss)
		for _, g := range res.GiveUps {
			fmt.Printf("  gave up          %d->%d after %d attempts @%d (%s)\n", g.Src, g.Dst, g.Attempts, g.Cycle, g.Reason)
		}
	}
	if res.Watchdog != "" {
		fmt.Println(res.Watchdog)
	}
	if t := res.Telemetry; t != nil {
		fmt.Printf("  telemetry        %10d epochs x %d cycles (%d retained, %d evicted)\n",
			t.Totals.Epochs, t.Every, len(t.Epochs), t.EvictedEpochs)
	}
	if *heatmap {
		fmt.Println()
		detail.RenderHeatmap(os.Stdout)
	}
	if traces := sim.Traces(); len(traces) > 0 {
		fmt.Println()
		for _, t := range traces {
			fmt.Println(t)
		}
	}
	exitIfWatchdog(res)
	lingerIfServing(*serveAddr)
}

// exitIfWatchdog turns a watchdog termination into a distinct failure
// exit: the run produced a result, but the network wedged — scripts and
// sweep harnesses must not mistake that for a healthy completion. The
// structured report goes to stderr (stdout carries the result).
func exitIfWatchdog(res roco.Result) {
	if res.Watchdog == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "rocosim: livelock watchdog fired; run terminated by the inactivity rule\n%s\n", res.Watchdog)
	os.Exit(exitWatchdog)
}

// runCheckpointed runs sim with periodic crash-safe snapshots in dir,
// flushing a final snapshot and exiting 128+signum on SIGINT/SIGTERM so
// an interrupted run is resumable with -resume.
func runCheckpointed(sim *roco.Sim, dir string, every int64, jsonOut bool) roco.Result {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var caught os.Signal
	go func() {
		caught = <-sigc
		close(stop)
	}()
	res, interrupted, err := sim.RunCheckpointed(roco.CheckpointOptions{Every: every, Dir: dir, Stop: stop})
	signal.Stop(sigc)
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "rocosim: %v at cycle %d; snapshot flushed to %s (resume with -resume)\n",
			caught, sim.Cycle(), dir)
		code := 128 + int(syscall.SIGINT)
		if sg, ok := caught.(syscall.Signal); ok {
			code = 128 + int(sg)
		}
		if jsonOut {
			// Emit the partial result so a supervising harness still sees
			// where the run stood when the signal landed.
			_ = roco.WriteJSON(os.Stdout, res)
		}
		os.Exit(code)
	}
	return res
}

// liveServer is the -serve endpoint, started by serveMetrics and drained
// by lingerIfServing on SIGINT/SIGTERM.
var liveServer *serve.Server

// serveMetrics mounts sim's telemetry HTTP endpoint before the run, so
// it serves for the run's whole duration and after. expvar and
// net/http/pprof register themselves on the default mux via their
// imports, so the one listener also serves /debug/vars and /debug/pprof.
func serveMetrics(sim *roco.Sim, addr string) {
	http.Handle("/metrics", sim.MetricsHandler())
	http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("serve: %v", err)
	}
	// The resolved address matters when the user asked for port 0.
	fmt.Fprintf(os.Stderr, "rocosim: serving telemetry on http://%s/metrics\n", ln.Addr())
	liveServer = serve.Start(ln, nil, serve.Options{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rocosim: "+format+"\n", args...)
		},
	})
}

// lingerIfServing keeps a -serve process alive after the run so the
// final epoch and totals stay scrapeable, then shuts down gracefully —
// in-flight scrapes drained under a timeout — when SIGINT/SIGTERM
// arrives, instead of blocking forever and needing a kill.
func lingerIfServing(addr string) {
	if addr == "" || liveServer == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "rocosim: run complete; serving final telemetry (SIGINT/SIGTERM to exit)")
	if err := liveServer.Wait(); err != nil {
		fatalf("serve: %v", err)
	}
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseD2DFault parses one node:side[@cycle] interface-fault spec. The
// returned cycle is -1 for a static fault (no @cycle suffix).
func parseD2DFault(spec string) (roco.Fault, int64, error) {
	s := strings.TrimSpace(spec)
	cycle := int64(-1)
	if body, at, ok := strings.Cut(s, "@"); ok {
		c, err := strconv.ParseInt(strings.TrimSpace(at), 10, 64)
		if err != nil || c < 0 {
			return roco.Fault{}, 0, fmt.Errorf("bad cycle in %q (want node:side[@cycle])", spec)
		}
		cycle, s = c, body
	}
	nodeStr, sideStr, ok := strings.Cut(s, ":")
	if !ok {
		return roco.Fault{}, 0, fmt.Errorf("bad spec %q (want node:side[@cycle])", spec)
	}
	node, err := strconv.Atoi(strings.TrimSpace(nodeStr))
	if err != nil || node < 0 {
		return roco.Fault{}, 0, fmt.Errorf("bad node in %q (want node:side[@cycle])", spec)
	}
	var side roco.Side
	switch strings.ToLower(strings.TrimSpace(sideStr)) {
	case "north", "n":
		side = roco.SideNorth
	case "east", "e":
		side = roco.SideEast
	case "south", "s":
		side = roco.SideSouth
	case "west", "w":
		side = roco.SideWest
	default:
		return roco.Fault{}, 0, fmt.Errorf("bad side %q (want north, east, south, west)", sideStr)
	}
	return roco.Fault{Node: node, Component: roco.D2DInterface, Side: side}, cycle, nil
}

// describeFault renders one configured fault for the pre-run log.
func describeFault(f roco.Fault) string {
	if f.Component == roco.D2DInterface {
		return fmt.Sprintf("node %d, %s (interface toward %s)", f.Node, f.Component, f.Side)
	}
	return fmt.Sprintf("node %d, %s (module %d, vc %d)", f.Node, f.Component, f.Module, f.VC)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rocosim: "+format+"\n", args...)
	os.Exit(2)
}
