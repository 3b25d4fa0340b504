// Package roco is a cycle-accurate reproduction of the RoCo (Row-Column)
// Decoupled Router from Kim et al., "A Gracefully Degrading and
// Energy-Efficient Modular Router Architecture for On-Chip Networks"
// (ISCA 2006), together with the paper's two baselines — a generic
// two-stage virtual-channel router and the Path-Sensitive router — and the
// full evaluation harness: flit-level mesh simulation, traffic generators,
// a structural energy model, permanent-fault injection with the paper's
// hardware-recycling recovery schemes, and drivers that regenerate every
// table and figure of the paper's evaluation section.
//
// The quickest way in:
//
//	res := roco.Run(roco.Config{
//		Router:        roco.RoCo,
//		Algorithm:     roco.XY,
//		Traffic:       roco.Uniform,
//		InjectionRate: 0.25,
//	})
//	fmt.Printf("avg latency %.1f cycles, %.2f nJ/packet\n",
//		res.AvgLatency, res.EnergyPerPacketNJ)
package roco

import (
	"fmt"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/generic"
	"github.com/rocosim/roco/internal/router/pathsensitive"
	"github.com/rocosim/roco/internal/router/pdr"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// RouterKind selects a router microarchitecture.
type RouterKind int

const (
	// Generic is the conventional 5-port two-stage VC router (baseline 1).
	Generic RouterKind = iota
	// PathSensitive is the DAC'05 quadrant-path-set router (baseline 2).
	PathSensitive
	// RoCo is the paper's Row-Column decoupled router.
	RoCo
	// PDR is the Partitioned Dimension-Order Router of the paper's related
	// work: two intertwined 3x3 crossbars with concatenated switch
	// traversals on dimension changes. Extension comparator; XY routing
	// only.
	PDR
)

// RouterKinds lists the architectures in the paper's comparison order.
var RouterKinds = [3]RouterKind{Generic, PathSensitive, RoCo}

// AllRouterKinds additionally includes the PDR extension comparator.
var AllRouterKinds = [4]RouterKind{Generic, PathSensitive, RoCo, PDR}

// String names the router as the paper's figures do.
func (k RouterKind) String() string {
	switch k {
	case Generic:
		return "Generic VC Router"
	case PathSensitive:
		return "Path-Sensitive"
	case RoCo:
		return "RoCo"
	case PDR:
		return "PDR"
	default:
		return "?"
	}
}

// Algorithm selects the routing discipline.
type Algorithm int

const (
	// XY is deterministic dimension-order routing.
	XY Algorithm = iota
	// XYYX is oblivious XY-YX routing (per-packet coin flip).
	XYYX
	// Adaptive is minimal adaptive routing (odd-even turn model).
	Adaptive
)

// Algorithms lists the three disciplines in evaluation order.
var Algorithms = [3]Algorithm{XY, XYYX, Adaptive}

// String names the algorithm.
func (a Algorithm) String() string { return a.internal().String() }

func (a Algorithm) internal() routing.Algorithm {
	switch a {
	case XY:
		return routing.XY
	case XYYX:
		return routing.XYYX
	case Adaptive:
		return routing.Adaptive
	default:
		panic(fmt.Sprintf("roco: unknown algorithm %d", int(a)))
	}
}

// TrafficPattern selects the workload.
type TrafficPattern int

const (
	// Uniform random destinations.
	Uniform TrafficPattern = iota
	// Transpose sends (x,y) to (y,x).
	Transpose
	// SelfSimilar models web traffic with Pareto ON/OFF sources.
	SelfSimilar
	// MPEG2 models GoP-structured video streams.
	MPEG2
	// BitComplement sends node b to node ^b (extension).
	BitComplement
	// Hotspot skews uniform traffic toward one node (extension).
	Hotspot
)

// TrafficPatterns lists the paper's three reported workloads.
var TrafficPatterns = [3]TrafficPattern{Uniform, SelfSimilar, Transpose}

// String names the pattern.
func (p TrafficPattern) String() string { return p.internal().String() }

func (p TrafficPattern) internal() traffic.Pattern {
	switch p {
	case Uniform:
		return traffic.Uniform
	case Transpose:
		return traffic.Transpose
	case SelfSimilar:
		return traffic.SelfSimilar
	case MPEG2:
		return traffic.MPEG2
	case BitComplement:
		return traffic.BitComplement
	case Hotspot:
		return traffic.Hotspot
	default:
		panic(fmt.Sprintf("roco: unknown traffic pattern %d", int(p)))
	}
}

// Component names a router component for fault injection (paper Table 3).
type Component int

const (
	// RC is the routing-computation unit.
	RC Component = iota
	// Buffer is one VC buffer.
	Buffer
	// VA is the virtual-channel allocator.
	VA
	// SA is the switch allocator.
	SA
	// Crossbar is the switch fabric.
	Crossbar
	// MuxDemux covers the input decoders and output multiplexers.
	MuxDemux
	// D2DInterface is a die-to-die interface failure on a multi-chip
	// topology (extension): every boundary link of one chiplet-to-chiplet
	// interface is severed in both directions in a single event. Fault.Node
	// names any node of the afflicted chiplet and Fault.Side selects which
	// of its interfaces dies. Requires a chiplet topology (Config.ChipsX et
	// al.); not part of the paper's Table 3 populations.
	D2DInterface
)

// String names the component.
func (c Component) String() string { return fault.Component(c).String() }

// Side names one cardinal side of a node or chiplet. It selects the
// afflicted interface of a D2DInterface fault.
type Side int

// The four sides, in the simulator's cardinal-direction order.
const (
	SideNorth Side = iota
	SideEast
	SideSouth
	SideWest
)

// String names the side.
func (s Side) String() string { return topology.Direction(s).String() }

// Fault is one permanent intra-router failure.
type Fault struct {
	// Node is the afflicted router.
	Node int
	// Component is the failed unit.
	Component Component
	// Module localizes the fault inside a RoCo router: 0 = row module,
	// 1 = column module. Baseline routers ignore it.
	Module int
	// VC localizes a Buffer fault to one channel.
	VC int
	// Side selects the interface of a D2DInterface fault: the one between
	// Node's chiplet and the adjacent chiplet in this direction. Ignored by
	// every other component.
	Side Side
}

func (f Fault) internal() fault.Fault {
	return fault.Fault{
		Node:      f.Node,
		Component: fault.Component(f.Component),
		Module:    fault.Module(f.Module % 2),
		VC:        f.VC,
		Port:      topology.Direction(f.Side),
	}
}

// FaultClass selects a fault population for random injection.
type FaultClass int

const (
	// CriticalFaults draws router-centric / critical-pathway faults
	// (VA, SA, crossbar, MUX/DEMUX) — the population of Figure 11.
	CriticalFaults FaultClass = iota
	// NonCriticalFaults draws message-centric, recoverable faults
	// (RC, buffer) — the population of Figure 12.
	NonCriticalFaults
)

// String names the class.
func (c FaultClass) String() string { return fault.Class(c).String() }

// D2DClass selects the signaling class of die-to-die boundary links on a
// multi-chip topology. The class sets the boundary link's default transit
// latency, serialization gap, and per-flit transfer energy; Config's
// D2DLatency/D2DGap override the timing.
type D2DClass int

const (
	// D2DParallel models a wide parallel interface over an interposer or
	// bridge: 2-cycle transit, full flit bandwidth (gap 1), ~5x the on-die
	// per-flit link energy.
	D2DParallel D2DClass = iota
	// D2DSerial models a narrow serialized off-package lane: 4-cycle
	// transit, one flit per 4 cycles (gap 4), ~17x the on-die per-flit
	// link energy.
	D2DSerial
)

// String names the class.
func (c D2DClass) String() string {
	if c == D2DSerial {
		return "serial"
	}
	return "parallel"
}

// params returns the class's default boundary-link latency and gap in
// cycles plus the per-flit transfer energy in nJ.
func (c D2DClass) params() (latency, gap int, xferNJ float64) {
	if c == D2DSerial {
		return 4, 4, power.D2DSerialXfer()
	}
	return 2, 1, power.D2DParallelXfer()
}

// RandomFaults draws count random faults of the given class over a
// width x height mesh, reproducibly from seed.
func RandomFaults(class FaultClass, count, width, height int, seed uint64) []Fault {
	rng := newFaultRNG(seed)
	set := fault.RandomSet(fault.Class(class), count, width*height, core.NumVCs, rng)
	out := make([]Fault, len(set))
	for i, f := range set {
		out[i] = publicFault(f)
	}
	return out
}

// publicFault converts an internal fault to the public representation.
func publicFault(f fault.Fault) Fault {
	return Fault{
		Node: f.Node, Component: Component(f.Component),
		Module: int(f.Module), VC: f.VC, Side: Side(f.Port),
	}
}

// TimedFault is one runtime fault event: the fault strikes at the start of
// Cycle, against a live network.
type TimedFault struct {
	Cycle int64
	Fault Fault
}

// PoissonFaultSchedule draws a reproducible runtime fault schedule over a
// width x height mesh: fault arrivals form a Poisson process with the
// given mean cycles between faults (an MTTF), truncated at horizon, each
// striking a distinct node with a component drawn from the class
// population. Use it as Config.FaultSchedule.
func PoissonFaultSchedule(class FaultClass, meanCyclesBetween float64, horizon int64, width, height int, seed uint64) []TimedFault {
	rng := newFaultRNG(seed)
	sched := fault.PoissonSchedule(fault.Class(class), meanCyclesBetween, horizon, width*height, core.NumVCs, rng)
	out := make([]TimedFault, 0, sched.Len())
	for _, ev := range sched.Events() {
		out = append(out, TimedFault{Cycle: ev.Cycle, Fault: publicFault(ev.Fault)})
	}
	return out
}

// Config parameterizes one simulation run. The zero value plus a router,
// algorithm, traffic pattern and injection rate reproduces the paper's
// setup: an 8x8 mesh with 4-flit packets of 128-bit flits.
type Config struct {
	// Width and Height set the grid size (default 8x8).
	Width, Height int
	// Torus closes the grid into a 2D torus with wrap-around links
	// (extension; generic router with XY routing only — the RoCo channel
	// classes of Table 1 have no dateline classes).
	Torus bool
	// ChipsX, ChipsY, ChipW and ChipH select a hierarchical multi-chip
	// (chiplet) topology (extension): a ChipsX x ChipsY grid of chiplets,
	// each a ChipW x ChipH node grid, stitched into one flat global mesh
	// (or, with Torus, torus) by die-to-die boundary links. Node ids and
	// routing are those of the equivalent flat grid — a 1x1-chiplet
	// configuration is bit-identical to the flat topology — but boundary
	// links carry the D2DClass latency, serialization gap, and per-flit
	// energy. Set all four or none; Width and Height must then be left
	// zero (derived as ChipsX*ChipW x ChipsY*ChipH) or match exactly.
	ChipsX, ChipsY, ChipW, ChipH int
	// D2DClass selects the die-to-die signaling class of the boundary
	// links (default D2DParallel). Ignored on single-die topologies.
	D2DClass D2DClass
	// D2DLatency and D2DGap override the class defaults: boundary-link
	// transit time in cycles, and the serialization interval (at most one
	// flit enters a boundary link per D2DGap cycles). 0 keeps the class
	// default; both are ignored on single-die topologies.
	D2DLatency, D2DGap int
	// Router selects the microarchitecture under test.
	Router RouterKind
	// Algorithm selects the routing discipline.
	Algorithm Algorithm
	// Traffic selects the workload.
	Traffic TrafficPattern
	// InjectionRate is the offered load in flits per node per cycle.
	InjectionRate float64
	// FlitsPerPacket defaults to the paper's 4 (128-bit flits).
	FlitsPerPacket int
	// WarmupPackets and MeasurePackets size the run. The paper uses 20k +
	// 1M; the defaults (2k + 30k) run the whole suite in minutes while
	// preserving steady-state shape. Raise them for paper-scale runs.
	WarmupPackets, MeasurePackets int64
	// Seed drives all randomness.
	Seed uint64
	// Faults are installed before the first cycle.
	Faults []Fault
	// FaultSchedule lists runtime fault events, installed mid-run against
	// the live network: the afflicted router dooms resident traffic, the
	// neighbor handshake is re-propagated, and upstream routers reroute or
	// drop. Build one by hand or with PoissonFaultSchedule.
	FaultSchedule []TimedFault
	// AuditEvery runs the flit-conservation auditor, which also rechecks
	// the routers' incrementally maintained allocation and dormancy
	// bitmaps, every AuditEvery cycles during the run (0 audits only at
	// termination, which always happens). A violation panics: it is a
	// simulator bug, never a legal outcome.
	AuditEvery int64
	// MaxCycles hard-caps the run (0 = default).
	MaxCycles int64
	// InactivityLimit terminates a faulty run after this many delivery-free
	// cycles once generation has finished (0 = default).
	InactivityLimit int64
	// HotspotNode and HotspotFraction configure the Hotspot pattern.
	HotspotNode     int
	HotspotFraction float64
	// Reliable enables the end-to-end reliable-delivery protocol: every
	// packet carries a per-source sequence number, sources retransmit
	// copies whose delivery provably failed (with exponential backoff and a
	// retry cap), the ejection port suppresses duplicates, and packets
	// whose destination the live fault map proves unreachable are given up
	// with a structured reason. With it on, every packet with a reachable
	// destination is delivered exactly once even under runtime faults.
	Reliable bool
	// RetransmitTimeout is the base retransmission timeout in cycles
	// (0 = default 256); each retransmission doubles it up to
	// RetransmitMaxTimeout (0 = default 4096, always clamped to half the
	// inactivity limit). RetransmitMaxRetries caps copies per packet
	// (0 = default 16). All ignored unless Reliable.
	RetransmitTimeout    int64
	RetransmitMaxTimeout int64
	RetransmitMaxRetries int
	// DisableMirrorSA (RoCo only) replaces the Mirroring-Effect switch
	// allocator with a plain separable output stage — the ablation that
	// quantifies what the mirror buys. Ignored by the baselines.
	DisableMirrorSA bool
	// ReferenceKernel selects the ungated simulation loop (every router
	// ticked and every pipe advanced every cycle, flits freshly
	// allocated) instead of the default activity-gated kernel. Results
	// are bit-identical either way; the reference exists as the
	// determinism oracle and benchmark baseline.
	ReferenceKernel bool
	// Shards splits the single run across CPU cores: the mesh is
	// partitioned into Shards contiguous node ranges that tick in
	// parallel inside each phase of the kernel's color schedule (see
	// DESIGN.md "Parallel kernel"). Results are bit-identical for every
	// value — Shards=N matches Shards=1 exactly — so this is purely a
	// speed knob for large meshes. 0 or 1 keeps the sequential kernel;
	// values above the node count are clamped; ignored (sequential) with
	// ReferenceKernel.
	Shards int
	// Workers caps the goroutines executing shard ticks (0 = one per
	// shard up to GOMAXPROCS, 1 = run shards inline). It never affects
	// results, only wall-clock time; it is clamped to Shards.
	Workers int
	// TelemetryEvery enables the epoch time-series collector: every
	// TelemetryEvery cycles the per-router counters (link/crossbar
	// utilization, VC occupancy by class, SA grants and conflicts,
	// early ejections, credit stalls, retransmissions, per-module
	// energy) are snapshotted into Result.Telemetry. 0 disables it (the
	// default; disabled telemetry is free). Enabling it never changes
	// any other Result field, under any kernel.
	TelemetryEvery int64
}

// multichip reports whether any chiplet-grid field is set (Validate
// rejects partially-set grids, so post-validation this means all four).
func (c Config) multichip() bool {
	return c.ChipsX != 0 || c.ChipsY != 0 || c.ChipW != 0 || c.ChipH != 0
}

// d2dTiming resolves the boundary-link latency and gap: the D2DClass
// defaults overridden by any explicit D2DLatency/D2DGap.
func (c Config) d2dTiming() (latency, gap int) {
	latency, gap, _ = c.D2DClass.params()
	if c.D2DLatency > 0 {
		latency = c.D2DLatency
	}
	if c.D2DGap > 0 {
		gap = c.D2DGap
	}
	return latency, gap
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.multichip() && c.Width == 0 && c.Height == 0 &&
		c.ChipsX > 0 && c.ChipsY > 0 && c.ChipW > 0 && c.ChipH > 0 {
		c.Width, c.Height = c.ChipsX*c.ChipW, c.ChipsY*c.ChipH
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.FlitsPerPacket == 0 {
		c.FlitsPerPacket = 4
	}
	if c.WarmupPackets == 0 {
		c.WarmupPackets = 2000
	}
	if c.MeasurePackets == 0 {
		c.MeasurePackets = 30000
	}
	return c
}

// Result is the outcome of one run.
type Result struct {
	// AvgLatency is the mean end-to-end packet latency in cycles
	// (creation at the source PE to tail delivery).
	AvgLatency float64
	// P95Latency, P99Latency and MaxLatency describe the latency tail.
	P95Latency, P99Latency, MaxLatency float64
	// Completion is the packet completion probability
	// (delivered / generated during the measurement window).
	Completion float64
	// DeliveredPackets and GeneratedPackets are the raw counts behind it.
	DeliveredPackets, GeneratedPackets int64
	// Throughput is the accepted traffic in flits/node/cycle.
	Throughput float64
	// EnergyPerPacketNJ is total network energy over the measurement
	// window divided by delivered packets; DynamicNJ and LeakageNJ are the
	// window totals.
	EnergyPerPacketNJ    float64
	DynamicNJ, LeakageNJ float64
	// D2DFlits counts flits that crossed die-to-die boundary links during
	// the measurement window; D2DEnergyNJ is the extra dynamic energy those
	// crossings cost beyond on-die link traversal (already included in
	// DynamicNJ). Both are zero on single-die topologies.
	D2DFlits    int64
	D2DEnergyNJ float64
	// PEF is the paper's composite Performance-Energy-Fault-tolerance
	// metric: (AvgLatency x EnergyPerPacketNJ) / Completion.
	PEF float64
	// SourceQueueDelay is the mean time a packet's tail spent waiting at
	// the source PE before entering the network (source queuing is part of
	// AvgLatency).
	SourceQueueDelay float64
	// ContentionRow, ContentionCol and Contention are the switch-conflict
	// probabilities of Figure 3 (failed SA requests / SA requests).
	ContentionRow, ContentionCol, Contention float64
	// Cycles is the total simulated time; Saturated reports that the run
	// hit MaxCycles before draining.
	Cycles    int64
	Saturated bool
	// DroppedFlits counts flits discarded by fault handling (static and
	// runtime); BrokenPackets the packets that lost at least one flit.
	DroppedFlits, BrokenPackets int64
	// DroppedUnroutable, DroppedInFlight and DroppedDeadNode split
	// DroppedFlits by cause: discarded at the source because no route
	// existed, lost from a wormhole broken mid-flight, and drained from a
	// fully dead router.
	DroppedUnroutable, DroppedInFlight, DroppedDeadNode int64
	// Retransmissions, RecoveredPackets, DuplicatePackets, GiveUps and
	// ResidualLoss describe the reliable-delivery protocol (all zero unless
	// Config.Reliable): copies launched beyond first attempts, packets
	// whose accepted delivery was a retransmitted copy, duplicate tails
	// suppressed at ejection, packets terminally abandoned, and logical
	// packets not delivered by the end of the run (always equal to
	// len(GiveUps) when the run drains).
	Retransmissions, RecoveredPackets, DuplicatePackets int64
	GiveUps                                             []GiveUp
	ResidualLoss                                        int64
	// FaultEvents describes each runtime fault installed and the
	// degradation measured around it.
	FaultEvents []FaultEvent
	// Watchdog is the livelock/starvation diagnostic, non-empty only when
	// the run terminated through the inactivity rule with traffic wedged
	// in the network.
	Watchdog string
	// Telemetry is the epoch time series (nil unless
	// Config.TelemetryEvery was set); see the Telemetry type.
	Telemetry *Telemetry `json:",omitempty"`
}

// GiveUp is one logical packet the reliable-delivery protocol terminally
// abandoned.
type GiveUp struct {
	// Src and Dst identify the flow; Attempts counts copies tried and
	// Cycle when the decision fell.
	Src, Dst int
	Attempts int
	Cycle    int64
	// Reason is "unreachable" (the fault map proves no route survives) or
	// "retries-exhausted" (the retry cap was hit first).
	Reason string
}

// FaultEvent is one runtime fault with its measured impact: the delivery
// rate before the fault, the post-fault floor, and how long the network
// took to recover to the recovery threshold (70% of the pre-fault rate).
type FaultEvent struct {
	Cycle int64
	Fault Fault
	// PreRate, FloorRate and PostRate are delivery rates in flits/cycle.
	PreRate, FloorRate, PostRate float64
	// PreGoodput, FloorGoodput and PostGoodput are the same measurements
	// on the goodput series — deliveries excluding protocol duplicates —
	// taken at the same positions. They equal their raw counterparts
	// unless Config.Reliable.
	PreGoodput, FloorGoodput, PostGoodput float64
	// RecoveryCycles is the fault-to-recovery distance; Recovered is false
	// when the network never returned to the threshold.
	RecoveryCycles int64
	Recovered      bool
	// DroppedUnroutable, DroppedInFlight and DroppedDeadNode attribute
	// drops to this fault (counted from its installation until the next).
	DroppedUnroutable, DroppedInFlight, DroppedDeadNode int64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("lat=%.2f cyc compl=%.3f thr=%.3f f/n/c E/pkt=%.3f nJ PEF=%.2f",
		r.AvgLatency, r.Completion, r.Throughput, r.EnergyPerPacketNJ, r.PEF)
}

// builderFor maps a router kind to its constructor and energy structure.
func builderFor(k RouterKind) (func(int, *router.RouteEngine) router.Router, power.Structure) {
	switch k {
	case Generic:
		return func(id int, e *router.RouteEngine) router.Router { return generic.New(id, e) },
			power.GenericStructure()
	case PathSensitive:
		return func(id int, e *router.RouteEngine) router.Router { return pathsensitive.New(id, e) },
			power.PathSensitiveStructure()
	case RoCo:
		return func(id int, e *router.RouteEngine) router.Router { return core.New(id, e) },
			power.RoCoStructure()
	case PDR:
		return func(id int, e *router.RouteEngine) router.Router { return pdr.New(id, e) },
			power.PDRStructure()
	default:
		panic(fmt.Sprintf("roco: unknown router kind %d", int(k)))
	}
}

// Run executes one simulation and returns its measurements. It panics on
// an invalid configuration; use Config.Validate to check dynamically built
// configurations first.
func Run(cfg Config) Result { return NewSim(cfg).Run() }

// Sim is one simulation, the package's only run object: Run, RunWindowed,
// Resume and the experiment drivers all build their network through
// NewSim. A Sim runs to termination with Run, or with RunCheckpointed
// under periodic snapshots and stop signals, and its views combine on
// any Sim, a resumed one included:
//   - Checkpoint and CheckpointFile snapshot it at a cycle boundary;
//   - TracePackets and Traces sample packet journeys;
//   - Detailed reports the per-node activity and the energy split;
//   - MetricsHandler and TelemetrySince read its live telemetry.
type Sim struct {
	cfg     Config
	net     *network.Network
	profile power.Profile
	// last is the network result of the latest Run or RunCheckpointed
	// return (nil until the first); Detailed reads it.
	last *network.Result
	// sweptDir remembers the checkpoint directory already swept of stale
	// temp files, so CheckpointFile sweeps once per directory, not once
	// per snapshot.
	sweptDir string
}

// NewSim validates cfg and builds its simulation. It panics on an invalid
// configuration, like Run.
func NewSim(cfg Config) *Sim {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("roco: invalid config: %v", err))
	}
	net, profile := buildNetwork(cfg)
	return &Sim{cfg: cfg, net: net, profile: profile}
}

// Cycle returns the current simulation time.
func (s *Sim) Cycle() int64 { return s.net.Cycle() }

// Run executes the simulation to termination and returns the
// measurements. A resumed Sim continues from its snapshot and produces
// a Result bit-identical to an uninterrupted run.
func (s *Sim) Run() Result { return s.finish(s.net.Run()) }

// finish keeps the network result of a Run or RunCheckpointed return for
// Detailed and converts it to the public Result.
func (s *Sim) finish(res network.Result) Result {
	s.last = &res
	return summarize(s.cfg, res, s.profile)
}

// PaperConfig returns the paper's exact evaluation setup for one
// experiment point: an 8x8 mesh, 4-flit packets of 128-bit flits, and the
// paper's full run length of 20,000 warm-up plus 1,000,000 measured
// packets. One such run takes minutes; the scaled defaults of Config are
// what the shipped EXPERIMENTS.md numbers use (validated against longer
// runs by TestSoakPaperScale).
func PaperConfig(k RouterKind, alg Algorithm, tp TrafficPattern, rate float64) Config {
	return Config{
		Width: 8, Height: 8,
		Router: k, Algorithm: alg, Traffic: tp,
		InjectionRate:  rate,
		FlitsPerPacket: 4,
		WarmupPackets:  20000,
		MeasurePackets: 1000000,
		Seed:           1,
	}
}
