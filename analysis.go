package roco

import (
	"fmt"
	"io"
	"math"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/metrics"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/protocol"
	"github.com/rocosim/roco/internal/report"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// buildNetwork constructs a wired simulation instance plus the
// router-kind power profile; Run, RunDetailed and RunTraced share it.
func buildNetwork(cfg Config, traceEvery uint64) (*network.Network, power.Profile) {
	build, structure := builderFor(cfg.Router)
	if cfg.DisableMirrorSA && cfg.Router == RoCo {
		inner := build
		build = func(id int, e *router.RouteEngine) router.Router {
			r := inner(id, e)
			r.(interface{ DisableMirror() }).DisableMirror()
			return r
		}
	}
	faults := make([]fault.Fault, len(cfg.Faults))
	for i, f := range cfg.Faults {
		faults[i] = f.internal()
	}
	events := make([]fault.Event, len(cfg.FaultSchedule))
	for i, tf := range cfg.FaultSchedule {
		events[i] = fault.Event{Cycle: tf.Cycle, Fault: tf.Fault.internal()}
	}
	topo := buildTopology(cfg)
	profile := power.NewProfile(structure)
	d2dLat, d2dGap := 0, 0
	if cfg.multichip() {
		d2dLat, d2dGap = cfg.d2dTiming()
		_, _, profile.D2DXfer = cfg.D2DClass.params()
	}
	net := network.New(network.Config{
		Topo:       topo,
		D2DLatency: d2dLat,
		D2DGap:     d2dGap,
		Algorithm:  cfg.Algorithm.internal(),
		Build:      build,
		Traffic: traffic.Config{
			Pattern:         cfg.Traffic.internal(),
			Rate:            cfg.InjectionRate,
			FlitsPerPacket:  cfg.FlitsPerPacket,
			HotspotNode:     cfg.HotspotNode,
			HotspotFraction: cfg.HotspotFraction,
		},
		WarmupPackets:     cfg.WarmupPackets,
		MeasurePackets:    cfg.MeasurePackets,
		Faults:            faults,
		Schedule:          fault.NewSchedule(events),
		AuditEvery:        cfg.AuditEvery,
		MaxCycles:         cfg.MaxCycles,
		InactivityLimit:   cfg.InactivityLimit,
		Seed:              cfg.Seed,
		TraceEvery:        traceEvery,
		ReferenceKernel:   cfg.ReferenceKernel,
		Shards:            cfg.Shards,
		Workers:           cfg.Workers,
		TelemetryEvery:    cfg.TelemetryEvery,
		TelemetryCapacity: cfg.TelemetryCapacity,
		TelemetryProfile:  profile,
		Reliable:          cfg.Reliable,
		Protocol: protocol.Params{
			Timeout:    cfg.RetransmitTimeout,
			MaxTimeout: cfg.RetransmitMaxTimeout,
			MaxRetries: cfg.RetransmitMaxRetries,
		},
	})
	return net, profile
}

// buildTopology maps the grid fields of a validated Config to its grid:
// the chiplet tiling when ChipsX et al. are set, a single Width x Height
// die otherwise, wrapped by Torus.
func buildTopology(cfg Config) *topology.Grid {
	cx, cy, cw, ch := 1, 1, cfg.Width, cfg.Height
	if cfg.multichip() {
		cx, cy, cw, ch = cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH
	}
	return topology.NewGrid(cx, cy, cw, ch, cfg.Torus)
}

// runNetwork executes one simulation and returns the raw network result
// together with the router-kind power profile.
func runNetwork(cfg Config) (network.Result, power.Profile) {
	net, profile := buildNetwork(cfg, 0)
	return net.Run(), profile
}

// TraceEvent is one observation of a traced packet's journey.
type TraceEvent struct {
	// Node is the router that observed the packet.
	Node int
	// Cycle is the observation time.
	Cycle int64
	// Kind is "inject", "arrive", "deliver" or "drop".
	Kind string
}

// PacketTrace is the sampled journey of one packet.
type PacketTrace struct {
	PacketID  uint64
	Src, Dst  int
	Completed bool
	Events    []TraceEvent
}

// String renders the journey on one line.
func (t PacketTrace) String() string {
	s := fmt.Sprintf("pkt %d %d->%d:", t.PacketID, t.Src, t.Dst)
	for i, e := range t.Events {
		if i == 0 {
			s += fmt.Sprintf(" %s@%d n%d", e.Kind, e.Cycle, e.Node)
		} else {
			s += fmt.Sprintf(" ->(%d) %s n%d", e.Cycle-t.Events[i-1].Cycle, e.Kind, e.Node)
		}
	}
	return s
}

// RunTraced executes one simulation while sampling approximately the given
// number of packet journeys, spread evenly over the run.
func RunTraced(cfg Config, samples int) (Result, []PacketTrace) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("roco: invalid config: %v", err))
	}
	every := uint64(1)
	if samples > 0 {
		total := cfg.WarmupPackets + cfg.MeasurePackets
		if n := uint64(total) / uint64(samples); n > 1 {
			every = n
		}
	}
	net, profile := buildNetwork(cfg, every)
	res := net.Run()
	var traces []PacketTrace
	for _, rec := range net.Traces() {
		t := PacketTrace{
			PacketID:  rec.PacketID,
			Src:       rec.Src,
			Dst:       rec.Dst,
			Completed: rec.Completed(),
		}
		for _, v := range rec.Visits {
			t.Events = append(t.Events, TraceEvent{Node: v.Node, Cycle: v.Cycle, Kind: v.Kind.String()})
		}
		traces = append(traces, t)
	}
	return summarize(cfg, res, profile), traces
}

// NodeStats summarizes one router's measured-window activity for spatial
// analysis.
type NodeStats struct {
	// LinkFlitsByDir counts flits this router drove onto each outgoing
	// link (indexed North=0, East=1, South=2, West=3).
	LinkFlitsByDir [4]int64
	// Delivered counts flits handed to this node's PE.
	Delivered int64
	// Dropped counts flits discarded here by static fault handling.
	Dropped int64
}

// EnergyBreakdown splits a run's energy by component group (nJ totals
// over the measurement window).
type EnergyBreakdown struct {
	BuffersNJ, CrossbarNJ, LinksNJ float64
	ArbitrationNJ, RoutingNJ       float64
	EjectionNJ, LeakageNJ          float64
}

// Detailed extends Result with per-node spatial statistics and the
// per-component energy split.
type Detailed struct {
	Result
	Width, Height int
	// ChipsX..ChipH echo the chiplet grid of the run (all zero on a
	// single-die topology); Torus echoes the wrap-around flag. Together
	// they let the spatial views rebuild the exact topology.
	ChipsX, ChipsY, ChipW, ChipH int
	Torus                        bool
	Nodes                        []NodeStats
	Energy                       EnergyBreakdown
	// MeasuredCycles is the span the per-node counters cover.
	MeasuredCycles int64
}

// RunDetailed executes one simulation and keeps the per-node activity
// split, for congestion heatmaps and spatial debugging.
func RunDetailed(cfg Config) Detailed {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("roco: invalid config: %v", err))
	}
	res, profile := runNetwork(cfg)
	d := Detailed{
		Result:         summarize(cfg, res, profile),
		Width:          cfg.Width,
		Height:         cfg.Height,
		ChipsX:         cfg.ChipsX,
		ChipsY:         cfg.ChipsY,
		ChipW:          cfg.ChipW,
		ChipH:          cfg.ChipH,
		Torus:          cfg.Torus,
		MeasuredCycles: res.MeasuredCycles,
		Nodes:          make([]NodeStats, len(res.PerRouter)),
	}
	for i, a := range res.PerRouter {
		d.Nodes[i] = NodeStats{
			LinkFlitsByDir: a.LinkFlitsByDir,
			Delivered:      a.Ejections + a.EarlyEjections,
			Dropped:        a.DroppedFlits,
		}
	}
	split := power.AccountDetailed(profile, &res.Activity)
	d.Energy = EnergyBreakdown{
		BuffersNJ: split.BuffersNJ, CrossbarNJ: split.CrossbarNJ, LinksNJ: split.LinksNJ,
		ArbitrationNJ: split.ArbitrationNJ, RoutingNJ: split.RoutingNJ,
		EjectionNJ: split.EjectionNJ, LeakageNJ: split.LeakageNJ,
	}
	return d
}

// LinkUtilization returns, per node, the mean outgoing-link utilization in
// flits per link per cycle (total link flits divided by the node's live
// link count and the measured span).
func (d Detailed) LinkUtilization() []float64 {
	topo := buildTopology(Config{
		Width: d.Width, Height: d.Height, Torus: d.Torus,
		ChipsX: d.ChipsX, ChipsY: d.ChipsY, ChipW: d.ChipW, ChipH: d.ChipH,
	})
	out := make([]float64, len(d.Nodes))
	if d.MeasuredCycles == 0 {
		return out
	}
	for id, n := range d.Nodes {
		links := 0
		var flits int64
		for _, dir := range topology.CardinalDirections {
			if _, ok := topo.Neighbor(id, dir); ok {
				links++
				flits += n.LinkFlitsByDir[dir]
			}
		}
		if links > 0 {
			out[id] = float64(flits) / float64(links) / float64(d.MeasuredCycles)
		}
	}
	return out
}

// RenderHeatmap writes an ASCII link-utilization heatmap of the mesh. On
// a chiplet topology the grid is partitioned by die boundaries, so the
// hierarchical coordinates read directly off the map.
func (d Detailed) RenderHeatmap(w io.Writer) {
	title := fmt.Sprintf("Link utilization (flits/link/cycle), %dx%d mesh", d.Width, d.Height)
	hm := &report.Heatmap{
		Title:  title,
		Width:  d.Width,
		Height: d.Height,
		Value:  d.LinkUtilization(),
	}
	if d.ChipsX > 0 {
		hm.Title = fmt.Sprintf("Link utilization (flits/link/cycle), %dx%d chiplets of %dx%d nodes",
			d.ChipsX, d.ChipsY, d.ChipW, d.ChipH)
		hm.ChipW, hm.ChipH = d.ChipW, d.ChipH
	}
	hm.Render(w)
}

// summarize converts a raw network result plus power profile into the
// public Result (shared by Run and RunDetailed).
func summarize(cfg Config, res network.Result, profile power.Profile) Result {
	energy := power.Account(profile, &res.Activity)
	// Account prices every link flit at the on-die transfer energy; add the
	// die-to-die premium for the flits that crossed boundary links.
	d2dNJ := power.D2DPremiumNJ(profile, res.D2DLinkFlits)
	energy.DynamicNJ += d2dNJ
	perPkt := energy.PerPacketNJ(res.Completion.Delivered)
	out := Result{
		AvgLatency:        res.Summary.AvgLatency,
		P95Latency:        res.Summary.P95Latency,
		P99Latency:        res.Summary.P99Latency,
		MaxLatency:        res.Summary.MaxLatency,
		Completion:        res.Summary.Completion,
		DeliveredPackets:  res.Summary.DeliveredPkts,
		GeneratedPackets:  res.Summary.GeneratedPkts,
		Throughput:        res.Summary.ThroughputFNC,
		EnergyPerPacketNJ: perPkt,
		DynamicNJ:         energy.DynamicNJ,
		LeakageNJ:         energy.LeakageNJ,
		D2DFlits:          res.D2DLinkFlits,
		D2DEnergyNJ:       d2dNJ,
		PEF:               metrics.PEF(res.Summary.AvgLatency, perPkt, res.Summary.Completion),
		SourceQueueDelay:  res.Summary.AvgSourceQ,
		ContentionRow:     res.Summary.ContentionRow,
		ContentionCol:     res.Summary.ContentionCol,
		Contention:        res.Summary.ContentionAll,
		Cycles:            res.Summary.Cycles,
		Saturated:         res.Saturated,
		DroppedFlits:      res.DroppedFlits,
		BrokenPackets:     res.BrokenPackets,
		DroppedUnroutable: res.Drops.Unroutable,
		DroppedInFlight:   res.Drops.InFlight,
		DroppedDeadNode:   res.Drops.DeadDrain,
		Retransmissions:   res.Retransmissions,
		RecoveredPackets:  res.RecoveredPackets,
		DuplicatePackets:  res.DuplicatePackets,
		ResidualLoss:      res.ResidualLoss,
	}
	for _, g := range res.GiveUps {
		out.GiveUps = append(out.GiveUps, GiveUp{
			Src: g.Src, Dst: g.Dst, Attempts: g.Attempts,
			Cycle: g.Cycle, Reason: g.Reason.String(),
		})
	}
	for _, fr := range res.FaultLog {
		out.FaultEvents = append(out.FaultEvents, FaultEvent{
			Cycle:             fr.Event.Cycle,
			Fault:             publicFault(fr.Event.Fault),
			PreRate:           fr.Degradation.PreRate,
			FloorRate:         fr.Degradation.FloorRate,
			PostRate:          fr.Degradation.PostRate,
			PreGoodput:        fr.Degradation.PreGoodput,
			FloorGoodput:      fr.Degradation.FloorGoodput,
			PostGoodput:       fr.Degradation.PostGoodput,
			RecoveryCycles:    fr.Degradation.RecoveryCycles,
			Recovered:         fr.Degradation.Recovered,
			DroppedUnroutable: fr.Drops.Unroutable,
			DroppedInFlight:   fr.Drops.InFlight,
			DroppedDeadNode:   fr.Drops.DeadDrain,
		})
	}
	if res.Watchdog != nil {
		out.Watchdog = res.Watchdog.String()
	}
	out.Telemetry = convertTelemetry(cfg, res.Telemetry)
	return out
}

// Interval is a mean with a 95% confidence half-width.
type Interval struct {
	Mean     float64
	HalfCI95 float64
}

// String renders "mean ± ci".
func (iv Interval) String() string { return fmt.Sprintf("%.3f ± %.3f", iv.Mean, iv.HalfCI95) }

// Replication summarizes repeated runs of one configuration under
// different seeds.
type Replication struct {
	Runs       int
	AvgLatency Interval
	Energy     Interval
	Completion Interval
	Throughput Interval
	PEF        Interval
}

// Replicate runs cfg n times with seeds cfg.Seed, cfg.Seed+1, ... and
// returns means with 95% confidence intervals — the replication method the
// shipped EXPERIMENTS.md numbers use to show run-to-run spread.
func Replicate(cfg Config, n int) Replication {
	if n < 1 {
		panic("roco: Replicate needs at least one run")
	}
	lat := make([]float64, n)
	en := make([]float64, n)
	comp := make([]float64, n)
	thr := make([]float64, n)
	pef := make([]float64, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		r := Run(c)
		lat[i], en[i], comp[i], thr[i], pef[i] =
			r.AvgLatency, r.EnergyPerPacketNJ, r.Completion, r.Throughput, r.PEF
	}
	return Replication{
		Runs:       n,
		AvgLatency: interval(lat),
		Energy:     interval(en),
		Completion: interval(comp),
		Throughput: interval(thr),
		PEF:        interval(pef),
	}
}

// interval computes a mean and normal-approximation 95% CI half-width.
func interval(xs []float64) Interval {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	if len(xs) < 2 {
		return Interval{Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return Interval{Mean: mean, HalfCI95: 1.96 * sd / math.Sqrt(n)}
}

// WindowPoint is one fixed-width time window's delivery statistics from
// RunWindowed.
type WindowPoint struct {
	StartCycle int64
	Delivered  int64
	AvgLatency float64
	// Dropped counts flits discarded in the window (fault recovery).
	Dropped int64
}

// RunWindowed executes one simulation while recording a time series of
// per-window delivery counts and latencies (window width in cycles) — the
// view that makes warm-up convergence and traffic burstiness visible.
func RunWindowed(cfg Config, windowCycles int64) (Result, []WindowPoint) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("roco: invalid config: %v", err))
	}
	net, profile := buildNetwork(cfg, 0)
	res, pts := net.RunWindows(windowCycles)
	out := make([]WindowPoint, len(pts))
	for i, p := range pts {
		out[i] = WindowPoint{StartCycle: p.StartCycle, Delivered: p.Delivered, AvgLatency: p.AvgLatency, Dropped: p.Dropped}
	}
	return summarize(cfg, res, profile), out
}
