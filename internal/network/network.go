// Package network assembles routers into a complete on-chip network and
// drives the cycle-accurate simulation: it wires the 1-cycle link and
// credit pipes, runs the per-node processing elements (packet generation,
// source queuing, injection, and delivery accounting), installs permanent
// faults, and decides termination — drain completion for healthy runs, the
// paper's inactivity rule for faulty ones.
package network

import (
	"fmt"
	"math"
	"runtime"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/metrics"
	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/protocol"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/telemetry"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
	"github.com/rocosim/roco/internal/traffic"
)

// Config parameterizes one simulation run.
type Config struct {
	// Topo is the network topology (the paper's evaluation uses an 8x8
	// mesh).
	Topo *topology.Grid
	// Algorithm is the routing discipline.
	Algorithm routing.Algorithm
	// Build constructs the router for one node; the caller selects the
	// microarchitecture (generic, path-sensitive, RoCo) here.
	Build func(id int, engine *router.RouteEngine) router.Router
	// Traffic describes the workload. Its FlitsPerPacket is authoritative.
	Traffic traffic.Config
	// WarmupPackets are generated and routed before measurement starts;
	// MeasurePackets are the measured population (paper: 20k + 1M; the
	// default harness scales these down — see DESIGN.md).
	WarmupPackets, MeasurePackets int64
	// Faults are installed before the first cycle.
	Faults []fault.Fault
	// Schedule holds runtime fault events, installed at the start of their
	// cycle's Step. Unlike Faults, scheduled faults strike a live network:
	// the afflicted router dooms resident traffic and the network
	// re-propagates the neighbor handshake so upstream routers reroute.
	Schedule fault.Schedule
	// AuditEvery runs the flit-conservation auditor every AuditEvery cycles
	// (0 audits only at termination). The auditor asserts that every
	// generated flit is delivered, dropped, backlogged, buffered, or on a
	// link, and that the routers' allocation and dormancy bitmaps match a
	// recomputation from the channels — a violated invariant panics with
	// the full breakdown.
	AuditEvery int64
	// MaxCycles hard-caps the run (saturation guard). Zero selects a
	// generous default.
	MaxCycles int64
	// InactivityLimit terminates a run when no packet has been delivered
	// for this many cycles after generation finished — the paper's rule
	// for faulty networks ("twice the fault-free completion time" is the
	// spirit; a fixed window is its practical form). Zero selects a
	// default.
	InactivityLimit int64
	// Seed drives all randomness in the run.
	Seed uint64
	// ReferenceKernel selects the ungated cycle loop: every router ticked
	// and every pipe advanced every cycle, flits freshly allocated. It is
	// the determinism oracle and benchmark baseline for the activity-gated
	// kernel (the default, see gated.go); results are bit-identical either
	// way.
	ReferenceKernel bool
	// Shards partitions the mesh into spatially contiguous shards (by
	// ascending node id) that tick in parallel inside each color phase of
	// the canonical schedule (see DESIGN.md "Parallel kernel"). The shard
	// count fixes the deterministic replay order of delivery/drop events
	// and the flit-pool partition, but results are bit-identical for every
	// value: Shards=N matches Shards=1 and the reference kernel exactly.
	// 0 or 1 selects the sequential path; the reference kernel always runs
	// single-sharded.
	Shards int
	// Workers caps the goroutines executing shard ticks (0 = one per
	// shard up to GOMAXPROCS, 1 = tick shards inline on the coordinator).
	// Pure execution concurrency: results never depend on Workers.
	Workers int
	// TelemetryEvery samples the telemetry collector every TelemetryEvery
	// cycles (0 disables it). Sampling happens on the coordinator at
	// cycle boundaries, after every kernel barrier, and reads only
	// counters that are bit-identical across kernels — enabling it never
	// changes a run's Result, and disabling it costs one comparison per
	// cycle.
	TelemetryEvery int64
	// TelemetryProfile prices the telemetry energy series. The zero
	// profile yields all-zero energy series (the network deliberately
	// does not know router technology parameters; the public layer
	// threads the router-kind profile through here).
	TelemetryProfile power.Profile
	// D2DLatency and D2DGap shape the die-to-die boundary links of a
	// chiplet grid: every link Topo classes as topology.D2D becomes a
	// multi-cycle pipe with D2DLatency cycles of transit and at most one
	// flit accepted per D2DGap cycles (the serializer of a narrow off-chip
	// lane). Values below 1 are treated as 1; 1/1 leaves the link a plain
	// one-cycle latch. A single die has no D2D links to apply them to.
	D2DLatency, D2DGap int
	// Reliable enables the end-to-end delivery protocol: sources track
	// every logical packet, retransmit copies whose flits a fault
	// destroyed (with exponential backoff and fault-region rerouting),
	// suppress duplicates at the ejection port, and give up only when the
	// reachability oracle proves the destination cut off or the retry cap
	// is hit. See internal/protocol and DESIGN.md "Delivery guarantees".
	Reliable bool
	// Protocol tunes the retransmission policy (zero values select
	// defaults; MaxTimeout is additionally clamped to InactivityLimit/2
	// so a backed-off timer can never outlive the liveness window).
	Protocol protocol.Params
}

// Result carries everything a run measured.
type Result struct {
	Summary    metrics.Summary
	Latency    *metrics.Latency
	Completion metrics.Completion
	// Activity is the sum over all routers, measured from the end of
	// warm-up; Contention likewise. PerRouter keeps the per-node split
	// (indexed by node ID) for utilization heatmaps.
	Activity   router.Activity
	PerRouter  []router.Activity
	Contention router.Contention
	// MeasuredCycles is the span from the end of warm-up to termination.
	MeasuredCycles int64
	// TotalCycles is the full run length.
	TotalCycles int64
	// DeliveredFlits counts measured-window flit deliveries.
	DeliveredFlits int64
	// Saturated reports that the run hit MaxCycles before draining.
	Saturated bool
	// DroppedFlits counts every flit discarded anywhere (fault recovery,
	// dead-node drains, source drops of unroutable packets); Drops splits
	// the count by cause.
	DroppedFlits int64
	Drops        DropBreakdown
	// BrokenPackets counts packets that lost at least one flit.
	BrokenPackets int64
	// D2DLinkFlits counts measured-window flit traversals of die-to-die
	// boundary links (zero on single-die topologies); the power layer
	// prices these at the off-chip per-flit energy instead of the on-die
	// link energy.
	D2DLinkFlits int64
	// FaultLog lists the runtime faults installed, each with the
	// degradation measured around it (paper Figure 13 style).
	FaultLog []FaultRecord
	// Telemetry is the epoch time-series snapshot (nil unless
	// Config.TelemetryEvery was set). A run that ended flushes its final
	// partial epoch at collection time; one a hook stopped leaves it open
	// for the continuation. Deliberately excluded from the bit-identity
	// contract between telemetry-on and telemetry-off runs; every other
	// field is covered by it.
	Telemetry *telemetry.Series
	// Watchdog is the livelock/starvation diagnostic, non-nil only when
	// the run terminated through the inactivity rule.
	Watchdog *WatchdogReport

	// Reliability protocol outcomes (Config.Reliable runs only; all zero
	// otherwise). Retransmissions counts extra copies launched;
	// RecoveredPackets the logical packets whose accepted delivery was a
	// retransmitted copy; DuplicatePackets/DuplicateFlits the traffic the
	// ejection port suppressed; GiveUps the packets terminally abandoned;
	// ResidualLoss the logical packets never delivered (give-ups plus any
	// still pending when the run was cut off).
	Retransmissions  int64
	RecoveredPackets int64
	DuplicatePackets int64
	DuplicateFlits   int64
	GiveUps          []protocol.GiveUp
	ResidualLoss     int64
}

// DropBreakdown splits a flit-drop count by cause.
type DropBreakdown struct {
	// Unroutable: discarded at the source PE because faults deny the
	// packet's first hop or local ejection.
	Unroutable int64
	// InFlight: broken inside the network by a live fault (condemned
	// buffers, doomed wormholes, collateral backlog of a broken packet).
	InFlight int64
	// DeadDrain: drained by a router that died whole.
	DeadDrain int64
}

// note tallies one drop under its reason.
func (d *DropBreakdown) note(r trace.DropReason) {
	switch r {
	case trace.DropUnroutable:
		d.Unroutable++
	case trace.DropInFlight:
		d.InFlight++
	case trace.DropDeadNode:
		d.DeadDrain++
	}
}

// FaultRecord pairs one installed runtime fault with the throughput
// degradation measured around it and the drops attributed to it (every
// drop between this fault's installation and the next one's).
type FaultRecord struct {
	Event       fault.Event
	Degradation metrics.Degradation
	Drops       DropBreakdown
}

// bucketCycles is the width of the delivery-rate buckets behind the
// degradation metrics.
const bucketCycles = 32

// link records one directed wiring edge: the Conn at the same index of
// Network.conns carries up's output out to down.
type link struct {
	up   int
	out  topology.Direction
	down int
}

// pe is the processing element attached to one router: an infinite source
// queue of segmented packets plus delivery bookkeeping. The network keeps
// its PEs in one slice.
type pe struct {
	id  int
	gen traffic.Generator
	// mode is this PE's private RNG stream for injection-mode coin flips
	// (XY-vs-YX under O1TURN, adaptive seeding). Splitting one stream per
	// PE from the user seed keeps generation deterministic regardless of
	// how the mesh is sharded.
	mode stats.RNG
	// backlog[head:] holds the flits awaiting injection, across packets in
	// order. Consuming by index instead of re-slicing keeps the front
	// capacity alive, so once drained the array is reset and reused —
	// steady-state generation appends without reallocating.
	backlog []*flit.Flit
	head    int
}

// consumeFront retires PE p's front backlog flit. Once every queued flit
// has been consumed it recycles the array and drops p from the
// backlogged set.
func (n *Network) consumeFront(p *pe) {
	n.backlogFlits--
	p.head++
	if p.head == len(p.backlog) {
		p.backlog = p.backlog[:0]
		p.head = 0
		n.backlogged.Clear(p.id)
	}
}

// Network is a fully wired simulation instance.
type Network struct {
	cfg     Config
	topo    *topology.Grid
	engine  *router.RouteEngine
	routers []router.Router
	pes     []pe
	conns   []router.Conn // one per directed link, parallel to links
	gens    []traffic.Generator
	rng     *stats.RNG

	nextPacketID uint64
	generated    int64 // all packets created
	deliveredAll int64 // all packets delivered (tails)
	cycle        int64

	// Flit-conservation ledger: every generated flit is in exactly one of
	// backlog, a router buffer, a link pipe, delivered, or dropped.
	genFlits     int64
	delFlitsAll  int64
	dropFlitsAll int64
	backlogFlits int64

	// backlogged holds the PEs whose backlog is non-empty: generation and
	// retransmission set a PE's bit, and consumeFront clears it when the
	// PE drains, so injection visits only PEs with flits to offer.
	backlogged router.Bitset

	schedule fault.Schedule
	faultLog []fault.Event
	links    []link
	broken   *router.BrokenSet
	buckets  []int64 // delivered flits per bucketCycles-wide bucket
	watchdog *WatchdogReport

	// Drop attribution: global by-reason tallies plus a per-runtime-fault
	// breakdown (faultDrops parallels faultLog; drops land in the most
	// recently installed fault's row).
	drops      DropBreakdown
	faultDrops []DropBreakdown

	// Reliability protocol state (Config.Reliable only; nil otherwise).
	// goodBuckets parallels buckets but counts only non-duplicate
	// deliveries — the goodput series behind degradation reporting.
	rel         *protocol.Tracker
	oracle      *protocol.Oracle
	goodBuckets []int64
	dupFlits    int64
	dupPackets  int64
	// lastProgress is the inactivity-rule clock: the last cycle the run
	// made observable forward progress (a tail delivered, a retransmission
	// launched, a packet given up). Without the protocol it equals
	// lastDelivery, preserving the pre-protocol termination rule bit for
	// bit.
	lastProgress int64

	// tracer holds the sampled packet journeys: every traceEvery-th
	// generated packet gets a record (0 samples none; see SampleTraces).
	tracer     *trace.Collector
	traceEvery uint64

	measuring      bool
	measureStart   int64
	latency        *metrics.Latency
	srcQueue       stats.Running
	completion     metrics.Completion
	deliveredFlits int64
	lastDelivery   int64

	// nextAudit is the first cycle the conservation auditor runs at again
	// (MaxInt64 when disabled), replacing a per-cycle modulo check.
	nextAudit int64

	// nextTelemetry is the first cycle the telemetry collector samples
	// at again (MaxInt64 when disabled), same pattern as nextAudit.
	nextTelemetry int64
	tele          *telemetry.Collector

	// Activity-gated kernel state (see gated.go and DESIGN.md "Simulation
	// kernel"). Unused in ReferenceKernel mode; pools stays nil there so
	// flits are freshly allocated exactly as the pre-gating kernel did.
	// activeBits/nextActiveBits are the routers ticking this cycle and the
	// wakes accumulated for the next; colorMask and shardLo turn the
	// canonical schedule into word-wise bitset sweeps; halves maps each
	// bit of a router's write mask to its link and the half's reader.
	pools          []*flit.Pool  // per-shard flit free lists
	graveyard      []*flit.Flit  // flits that died this cycle, recycled at end of Step
	lastRun        []int64       // last cycle each router ticked; -1 = never
	shardNotes     [][]tickNote  // scratch: busy or writing routers ticked this Step, per shard
	advance        []int         // scratch: conns with staged traffic this Step
	advancing      router.Bitset // the conns on advance, to list each once
	activeBits     router.Bitset
	nextActiveBits router.Bitset
	colorMask      []router.Bitset
	shardLo        []int
	halves         []half // [node*8 + write-mask bit]

	// Multi-cycle die-to-die link state (chiplet topologies with
	// D2DLatency/D2DGap > 1; nil otherwise). A long conn cannot use the
	// one-shot advance above — its in-transit flits need an Advance every
	// cycle until delivery — so staged traffic moves it onto longActive,
	// where it advances each cycle (waking the reader the cycle traffic
	// lands) until quiescent. The reference kernel advances every conn
	// anyway.
	isLong     []bool
	longOn     []bool
	longActive []int

	// Canonical tick schedule and sharding state (see DESIGN.md "Parallel
	// kernel"). Both kernels tick through sched — colors ascending, router
	// ids ascending within a color — and both stage delivery/drop events
	// during the tick phases, replaying them at each color barrier in
	// shard-major (= ascending id) order, so sequential, sharded, and
	// reference executions are bit-identical.
	shards   int
	workers  int
	sched    [][][]int // [color][shard] -> router ids, ascending
	shardOf  []int     // node id -> shard
	sinkBufs [][]sinkEvent
	staging  bool // tick phases in progress: sinks buffer instead of applying
	wp       *workerPool
}

// New wires a network per cfg.
func New(cfg Config) *Network {
	if cfg.Topo == nil {
		panic("network: nil topology")
	}
	if cfg.Build == nil {
		panic("network: nil router builder")
	}
	if cfg.Traffic.FlitsPerPacket < 1 {
		panic("network: FlitsPerPacket must be >= 1")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000
	}
	if cfg.InactivityLimit == 0 {
		cfg.InactivityLimit = 8192
	}
	n := &Network{
		cfg:      cfg,
		topo:     cfg.Topo,
		latency:  metrics.NewLatency(),
		rng:      stats.NewRNG(cfg.Seed),
		tracer:   &trace.Collector{},
		schedule: cfg.Schedule,
		broken:   router.NewBrokenSet(),
	}
	if cfg.Reliable {
		params := cfg.Protocol.Normalized()
		// A backed-off timer sleeping longer than the inactivity window
		// would let the liveness rule kill a run the protocol was still
		// going to repair; cap the backoff at half the window so every
		// pending packet is re-examined well inside it.
		if lim := cfg.InactivityLimit / 2; params.MaxTimeout > lim {
			params.MaxTimeout = lim
		}
		if params.Timeout > params.MaxTimeout {
			params.Timeout = params.MaxTimeout
		}
		n.rel = protocol.NewTracker(cfg.Topo.Nodes(), params)
	}
	nodes := cfg.Topo.Nodes()
	// Every directed link of the topology, in ascending (node, direction)
	// order, each with its Conn at the same index. The Conns live in one
	// slice that never moves: the routers hold pointers into it.
	n.links = make([]link, 0, 4*nodes)
	for id := 0; id < nodes; id++ {
		for _, d := range topology.CardinalDirections {
			if nb, ok := cfg.Topo.Neighbor(id, d); ok {
				n.links = append(n.links, link{up: id, out: d, down: nb})
			}
		}
	}
	n.conns = make([]router.Conn, len(n.links))
	// Die-to-die boundary links of a chiplet topology become multi-cycle
	// pipes; the long-conn advance lists exist only when at least one link
	// actually carries transit state.
	var maxLinkDelay int64
	if cfg.D2DLatency > 1 || cfg.D2DGap > 1 {
		lat, gap := max(cfg.D2DLatency, 1), max(cfg.D2DGap, 1)
		n.isLong = make([]bool, len(n.conns))
		for i, l := range n.links {
			if cfg.Topo.LinkClass(l.up, l.out) == topology.D2D {
				n.conns[i].SetD2D(lat, gap)
				if n.isLong[i] = n.conns[i].Long(); n.isLong[i] {
					maxLinkDelay = int64(max(lat, gap))
				}
			}
		}
		if maxLinkDelay > 0 {
			n.longOn = make([]bool, len(n.conns))
		} else {
			n.isLong = nil
		}
	}

	// Every router is built with the network-wide context on the engine
	// (InitChassis copies it): the staging sinks, the broken-packet
	// registry, the reap horizon and the kernel's full-tick switch.
	n.routers = make([]router.Router, nodes)
	n.engine = router.NewRouteEngine(cfg.Topo, cfg.Algorithm, func(id int) router.Router { return n.routers[id] })
	n.engine.Deliver, n.engine.Drop, n.engine.Broken = n.sink, n.dropSink, n.broken
	n.engine.FullTick = cfg.ReferenceKernel
	// A serialized boundary link stretches the straggler horizon of every
	// router a wormhole can span: flits of a broken packet trickle in
	// spaced up to max(latency, gap) cycles apart, at the crossing and at
	// every hop downstream of it.
	n.engine.MaxLinkDelay = maxLinkDelay
	if n.rel != nil {
		n.oracle = protocol.NewOracle(n.engine)
	}
	for id := 0; id < nodes; id++ {
		n.routers[id] = cfg.Build(id, n.engine)
	}

	// Install faults before wiring so credit books see degraded depths.
	for _, flt := range cfg.Faults {
		n.validateFault(flt, nodes)
		// Nothing is resident yet, so a pre-wiring sever only marks port
		// masks, and AttachOutput below reads every degraded depth.
		n.strike(flt, n.faultTargets(flt))
	}
	for _, ev := range cfg.Schedule.Events() {
		n.validateFault(ev.Fault, nodes)
	}

	// Wire every link; each upstream router sizes its credit book from the
	// downstream router's (possibly fault-degraded) VC depths.
	for i, l := range n.links {
		n.routers[l.up].AttachOutput(l.out, &n.conns[i])
		n.routers[l.down].AttachInput(l.out.Opposite(), &n.conns[i])
	}

	// Shard partition and canonical color schedule. The reference kernel
	// always runs single-sharded (it is the sequential oracle); workers
	// never exceed shards, and the default is one worker per shard up to
	// the machine's parallelism.
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	if cfg.ReferenceKernel {
		shards = 1
	}
	n.shards = shards
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	n.workers = workers
	n.sched, n.shardOf = buildSchedule(cfg.Topo, shards)
	n.sinkBufs = make([][]sinkEvent, shards)

	// Traffic generators, one independent stream per node.
	n.gens = traffic.New(cfg.Traffic, cfg.Topo, n.rng.Split(0x726166666963)) // "raffic"
	modeBase := n.rng.Split(0x6d6f6465)                                      // "mode"
	n.pes = make([]pe, nodes)
	for id := range n.pes {
		n.pes[id] = pe{id: id, gen: n.gens[id], mode: *modeBase.Split(uint64(id))}
	}
	n.backlogged = router.NewBitset(nodes)

	n.nextAudit = math.MaxInt64
	if cfg.AuditEvery > 0 {
		n.nextAudit = cfg.AuditEvery
	}
	n.nextTelemetry = math.MaxInt64
	if cfg.TelemetryEvery > 0 {
		links := make([]int, nodes)
		for _, l := range n.links {
			links[l.up]++
		}
		n.tele = telemetry.New(telemetry.Config{
			Every:   cfg.TelemetryEvery,
			Nodes:   nodes,
			Links:   links,
			Profile: cfg.TelemetryProfile,
		})
		n.nextTelemetry = cfg.TelemetryEvery
	}
	if !cfg.ReferenceKernel {
		n.initGated(nodes)
	}
	return n
}

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// deliver is the sink shared by all routers.
func (n *Network) deliver(node int, f *flit.Flit, cycle int64) {
	if f.Dst != node {
		panic(fmt.Sprintf("network: flit %v delivered to wrong node %d", f, node))
	}
	// The flit is dead once accounting completes, but callers (loopback
	// injection, the PE latch) may still read it this cycle — recycle at
	// the end of Step, not here.
	if n.pools != nil {
		n.graveyard = append(n.graveyard, f)
	}
	// Measurement windows follow the logical packet: Origin is the first
	// attempt's ID, so a retransmitted copy of a measured packet stays
	// measured (and equals PacketID whenever the protocol is off).
	measured := f.Origin >= uint64(n.cfg.WarmupPackets)
	n.delFlitsAll++
	b := cycle / bucketCycles
	for int64(len(n.buckets)) <= b {
		n.buckets = append(n.buckets, 0)
	}
	n.buckets[b]++
	dup := false
	if n.rel != nil {
		// Duplicate suppression at the ejection port: flits of a logical
		// packet already delivered or abandoned count as raw throughput
		// but not goodput, and never complete a packet twice.
		dup = n.rel.Resolved(f.Src, f.SrcSeq)
		for int64(len(n.goodBuckets)) <= b {
			n.goodBuckets = append(n.goodBuckets, 0)
		}
		if dup {
			n.dupFlits++
		} else {
			n.goodBuckets[b]++
		}
	}
	if measured {
		n.deliveredFlits++
	}
	if f.Rec != nil && f.Type.IsHead() {
		f.Rec.Visit(node, cycle, trace.Delivered)
	}
	if !f.Type.IsTail() {
		return
	}
	n.deliveredAll++
	n.lastDelivery = cycle
	n.lastProgress = cycle
	if n.broken.Contains(f.PacketID) {
		panic(fmt.Sprintf("network: broken packet %d delivered its tail", f.PacketID))
	}
	if n.rel != nil {
		accepted, _ := n.rel.Ack(f.Src, f.SrcSeq, cycle)
		if !accepted {
			// Structurally this cannot happen — retransmission launches
			// only after the previous copy broke, and broken copies never
			// deliver tails — but the ACK layer stays the authority.
			n.dupPackets++
			return
		}
	}
	if measured {
		n.completion.Delivered++
		n.latency.Record(cycle - f.CreatedAt)
		n.srcQueue.Add(float64(f.InjectedAt - f.CreatedAt))
	}
}

// targetPackets returns the total generation budget.
func (n *Network) targetPackets() int64 { return n.cfg.WarmupPackets + n.cfg.MeasurePackets }

// generate runs every PE's traffic source for this cycle.
func (n *Network) generate() {
	if n.generated >= n.targetPackets() {
		return
	}
	fpp := n.cfg.Traffic.FlitsPerPacket
	for i := range n.pes {
		p := &n.pes[i]
		if n.generated >= n.targetPackets() {
			break
		}
		dst, ok := p.gen.NextPacket(n.cycle)
		if !ok {
			continue
		}
		mode := routing.InjectionMode(n.cfg.Algorithm, func() bool { return p.mode.Bernoulli(0.5) })
		pkt := flit.Packet{
			ID:        n.nextPacketID,
			Src:       p.id,
			Dst:       dst,
			Flits:     fpp,
			CreatedAt: n.cycle,
			Mode:      mode,
			Origin:    n.nextPacketID,
		}
		if n.rel != nil {
			pkt.SrcSeq = n.rel.Stamp(p.id, dst, pkt.ID, n.cycle)
		}
		n.nextPacketID++
		n.generated++
		head := len(p.backlog)
		p.backlog = flit.AppendSegment(p.backlog, pkt, n.poolFor(p.id))
		n.backlogged.Set(p.id)
		if n.traceEvery > 0 && pkt.ID%n.traceEvery == 0 {
			p.backlog[head].Rec = n.tracer.NewRecord(pkt.ID, pkt.Src, pkt.Dst, pkt.CreatedAt)
		}
		n.genFlits += int64(fpp)
		n.backlogFlits += int64(fpp)

		// The warm-up boundary: reset measurement state the moment the
		// first measured packet is created. Measured-ness is a property of
		// the packet ID (IDs are assigned in creation order), so packets
		// created earlier in the boundary cycle stay unmeasured.
		if pkt.ID >= uint64(n.cfg.WarmupPackets) {
			if !n.measuring {
				n.beginMeasurement()
			}
			n.completion.Generated++
		}
	}
}

// beginMeasurement zeroes the activity and contention counters so energy
// and contention reflect steady state only.
func (n *Network) beginMeasurement() {
	n.measuring = true
	n.measureStart = n.cycle
	// Replay pending sleep cycles into the pre-boundary counters first:
	// SkipCycles is not purely statistical — a slept RoCo module's mirror
	// primary must flip for those cycles no matter where the measurement
	// boundary lands. The replayed Cycles counts are then zeroed along
	// with everything else, so future settles count activity from the
	// boundary cycle on — exactly what the ungated kernel measures.
	for id := range n.lastRun {
		n.settleTo(id, n.cycle-1)
	}
	for _, r := range n.routers {
		*r.Activity() = router.Activity{}
		*r.Contention() = router.Contention{}
	}
}

// noteDrop is the drop sink shared by all routers: it keeps the
// conservation ledger, attributes the drop to its cause (and to the most
// recently installed runtime fault), and registers the packet as broken so
// its remaining fragments everywhere are doomed.
func (n *Network) noteDrop(f *flit.Flit, cycle int64, reason trace.DropReason) {
	n.dropFlitsAll++
	n.drops.note(reason)
	if k := len(n.faultDrops); k > 0 {
		n.faultDrops[k-1].note(reason)
	}
	n.broken.Add(f.PacketID, cycle)
	// Dead-node drains and doomed-wormhole drops read the flit (VC, tail
	// type) after reporting it — defer recycling to the end of Step.
	if n.pools != nil {
		n.graveyard = append(n.graveyard, f)
	}
}

// dropAtSource discards the PE's front backlog flit (never injected).
func (n *Network) dropAtSource(p *pe, reason trace.DropReason) {
	f := p.backlog[p.head]
	n.consumeFront(p)
	if f.Rec != nil && f.Type.IsHead() {
		f.Rec.Drop(p.id, n.cycle, reason)
	}
	n.noteDrop(f, n.cycle, reason)
}

// inject advances the source queue of every PE with a backlog by at most
// one flit (the PE link is one flit wide), in ascending PE order.
func (n *Network) inject() {
	n.backlogged.ForEachIn(0, len(n.pes), func(i int) {
		p := &n.pes[i]
		// Flits of packets already broken by an in-flight loss will never
		// be accepted; discard them so the source queue keeps draining.
		// (Unroutable heads drain with their whole packet below, so the
		// flits swept here always belong to packets broken in flight.)
		for p.head < len(p.backlog) && n.broken.Contains(p.backlog[p.head].PacketID) {
			n.dropAtSource(p, trace.DropInFlight)
		}
		if p.head == len(p.backlog) {
			return
		}
		f := p.backlog[p.head]
		if f.Type.IsHead() {
			f.OutPort = n.engine.FirstHop(p.id, f)
			// Source drop: faults left the local router unable to serve the
			// packet's first hop (e.g. its injection module is blocked, or
			// the whole node is dead). Discard the packet whole — retrying
			// a permanent fault forever would wedge the source queue.
			if f.OutPort != topology.Local && !n.routers[p.id].CanServe(topology.Local, f.OutPort) {
				for p.head < len(p.backlog) {
					tail := p.backlog[p.head].Type.IsTail()
					n.dropAtSource(p, trace.DropUnroutable)
					if tail {
						break
					}
				}
				return
			}
		}
		if n.routers[p.id].TryInject(f, n.cycle) {
			f.InjectedAt = n.cycle
			if f.Rec != nil {
				f.Rec.Visit(p.id, n.cycle, trace.Injected)
			}
			n.consumeFront(p)
			// The accepted flit needs the router's allocators next cycle.
			n.wakeNext(p.id)
		}
	})
}

// retransmitDue runs the reliability protocol's timers for this cycle:
// copies a fault provably destroyed are relaunched (with backoff and
// fault-region rerouting) or terminally given up. It runs at the same
// point of Step in both kernels — after generation, before router ticks —
// so gated and reference executions stay bit-identical. Relaunched copies
// enter the source PE's ordinary backlog: injection itself wakes the
// source router in the gated kernel, exactly as fresh traffic does.
func (n *Network) retransmitDue() {
	if n.rel == nil {
		return
	}
	fpp := n.cfg.Traffic.FlitsPerPacket
	acted := n.rel.Expire(n.cycle, protocol.Env{
		CopyBroken:  n.broken.Contains,
		Deliverable: n.oracle.Deliverable,
		Launch: func(e *protocol.Entry, mode flit.RouteMode) uint64 {
			id := n.nextPacketID
			n.nextPacketID++
			pkt := flit.Packet{
				ID:  id,
				Src: e.Src, Dst: e.Dst,
				Flits: fpp,
				// Latency is end-to-end for the logical packet: the copy
				// inherits the original creation time.
				CreatedAt: e.CreatedAt,
				Mode:      mode,
				SrcSeq:    e.Seq,
				Origin:    e.Origin,
			}
			p := &n.pes[e.Src]
			p.backlog = flit.AppendSegment(p.backlog, pkt, n.poolFor(e.Src))
			n.backlogged.Set(e.Src)
			// The copy's flits are new in the conservation ledger (the
			// originals were already accounted as dropped), but not new
			// logical packets: generated/completion counts stay untouched.
			n.genFlits += int64(fpp)
			n.backlogFlits += int64(fpp)
			// Wake the source router so the backlogged copy injects
			// promptly even if the node was asleep.
			n.wakeNext(e.Src)
			return id
		},
	})
	if acted > 0 {
		// Retransmissions and give-ups are forward progress for the
		// inactivity rule: each entry can act at most 1+MaxRetries times,
		// so this cannot postpone termination unboundedly.
		n.lastProgress = n.cycle
	}
}

// Step advances the simulation one cycle.
func (n *Network) Step() {
	if n.cfg.ReferenceKernel {
		n.stepReference()
	} else {
		n.stepActive()
	}
}

// stepReference is the ungated cycle loop: tick every router in canonical
// color order, advance every pipe. It is the oracle the gated kernel (at
// any shard count) must match bit for bit.
func (n *Network) stepReference() {
	n.installDueFaults()
	n.generate()
	n.retransmitDue()
	n.tickColors(n.cycle)
	n.inject()
	for i := range n.conns {
		n.conns[i].Advance()
	}
	n.finishCycle()
}

// finishCycle advances the clock, runs the conservation auditor when its
// next scheduled cycle arrives, and closes a telemetry epoch likewise.
// Both run on the coordinator with every worker parked, so the telemetry
// sample reads quiescent router state under any kernel.
func (n *Network) finishCycle() {
	n.cycle++
	if n.cycle >= n.nextAudit {
		n.audit()
		n.nextAudit = n.cycle + n.cfg.AuditEvery
	}
	if n.cycle >= n.nextTelemetry {
		n.tele.Sample(n.cycle, n.routers, n.telemetryCounters())
		n.nextTelemetry = n.cycle + n.cfg.TelemetryEvery
	}
}

// telemetryCounters snapshots the network-side cumulative counters the
// telemetry collector folds into each epoch.
func (n *Network) telemetryCounters() telemetry.NetSample {
	s := telemetry.NetSample{
		GenFlits:  n.genFlits,
		DelFlits:  n.delFlitsAll,
		DropFlits: n.dropFlitsAll,
	}
	if n.rel != nil {
		s.Retransmissions = n.rel.Retransmissions()
		s.Recovered = n.rel.Recovered()
		s.GiveUps = int64(len(n.rel.GiveUps()))
	}
	return s
}

// Telemetry exposes the live collector (nil unless Config.TelemetryEvery
// is set); the HTTP metrics endpoint serves from it while a run executes.
func (n *Network) Telemetry() *telemetry.Collector { return n.tele }

// validateFault panics on a structurally impossible fault: a nonexistent
// node, or a die-to-die interface fault aimed at a side of its chiplet
// with no interface (every side of a single die).
func (n *Network) validateFault(flt fault.Fault, nodes int) {
	if flt.Node < 0 || flt.Node >= nodes {
		panic(fmt.Sprintf("network: fault at nonexistent node %d", flt.Node))
	}
	if flt.Component != fault.D2DIf {
		return
	}
	if !flt.Port.IsCardinal() {
		panic(fmt.Sprintf("network: D2D interface fault needs a cardinal side, got %v", flt.Port))
	}
	if len(n.topo.InterfaceNodes(n.topo.ChipOf(flt.Node), flt.Port)) == 0 {
		panic(fmt.Sprintf("network: node %d's chiplet has no %v die-to-die interface", flt.Node, flt.Port))
	}
}

// faultTargets lists the routers a fault strikes: the afflicted node of
// a component fault, or both ends of every boundary link of a die-to-die
// interface fault, as (inside, outside) pairs.
func (n *Network) faultTargets(flt fault.Fault) []int {
	if flt.Component != fault.D2DIf {
		return []int{flt.Node}
	}
	var targets []int
	for _, u := range n.topo.InterfaceNodes(n.topo.ChipOf(flt.Node), flt.Port) {
		if v, ok := n.topo.Neighbor(u, flt.Port); ok {
			targets = append(targets, u, v)
		}
	}
	return targets
}

// strike applies a fault to its faultTargets: ApplyFault on the afflicted
// router, or SeverPort on both ends of each boundary link, so the whole
// interface dies in both directions at once.
func (n *Network) strike(flt fault.Fault, targets []int) {
	if flt.Component != fault.D2DIf {
		n.routers[flt.Node].ApplyFault(flt)
		return
	}
	for i := 0; i < len(targets); i += 2 {
		n.routers[targets[i]].SeverPort(flt.Port)
		n.routers[targets[i+1]].SeverPort(flt.Port.Opposite())
	}
}

// installDueFaults strikes the live network with the runtime fault events
// scheduled for this cycle, then re-propagates the neighbor handshake:
// every upstream router of a struck node re-reads its input-VC depths so
// credit books (and through them VA and adaptive routing) see the
// degradation immediately. Resident traffic routed through a dead
// component or severed port is doomed by the struck routers. One fault
// log entry covers each event, a whole interface included.
func (n *Network) installDueFaults() {
	for _, ev := range n.schedule.Due(n.cycle) {
		targets := n.faultTargets(ev.Fault)
		if n.gatedKernel() {
			// Replay the sleep of each struck router, and of each upstream
			// neighbor whose credit book propagateHandshake is about to
			// mutate, under pre-fault rules; then wake them for this very
			// cycle so reactions are not delayed. Both calls are
			// idempotent, so a router reached twice settles once.
			for _, id := range targets {
				n.settleTo(id, n.cycle-1)
				n.wakeNow(id)
				for _, d := range topology.CardinalDirections {
					if up, ok := n.topo.Neighbor(id, d); ok {
						n.settleTo(up, n.cycle-1)
						n.wakeNow(up)
					}
				}
			}
		}
		n.strike(ev.Fault, targets)
		for _, id := range targets {
			n.propagateHandshake(id)
		}
		n.faultLog = append(n.faultLog, ev)
		n.faultDrops = append(n.faultDrops, DropBreakdown{})
		if n.oracle != nil {
			// The fault-region map changed; cached reachability answers
			// are stale.
			n.oracle.Invalidate()
		}
	}
}

// propagateHandshake has every upstream router of node — its grid
// neighbours, each reaching node through the opposite side — re-read
// node's current input-VC depths into its credit book.
func (n *Network) propagateHandshake(node int) {
	for _, d := range topology.CardinalDirections {
		if up, ok := n.topo.Neighbor(node, d); ok {
			n.routers[up].RefreshOutput(d.Opposite())
		}
	}
}

// audit asserts flit conservation: every generated flit is accounted for as
// delivered, dropped, awaiting injection, buffered in a router, or in
// flight on a link. It then rechecks the state the kernels derive
// incrementally: no pipe holds a value staged but not advanced (a write
// the gated kernel's write masks missed), the backlogged set is exactly
// the PEs with a non-empty backlog, and each router's allocation and
// dormancy bitmaps match a recomputation from its channels. A violation
// is a simulator bug (a flit was silently lost or double-counted, or a
// mutation skipped its bookkeeping) and panics with the breakdown.
func (n *Network) audit() {
	var buffered, inPipes int64
	for _, r := range n.routers {
		buffered += int64(r.BufferedFlits())
	}
	for i := range n.conns {
		inPipes += int64(n.conns[i].Flit.Occupancy())
		if n.conns[i].Staged() {
			l := n.links[i]
			panic(fmt.Sprintf("network: link %d %v->%d holds a staged half at cycle %d: a pipe write was missed", l.up, l.out, l.down, n.cycle))
		}
	}
	for i := range n.pes {
		if p := &n.pes[i]; n.backlogged.Has(i) != (p.head < len(p.backlog)) {
			panic(fmt.Sprintf("network: PE %d backlogged bit %v, but it has %d flits queued at cycle %d", i, n.backlogged.Has(i), len(p.backlog)-p.head, n.cycle))
		}
	}
	total := n.delFlitsAll + n.dropFlitsAll + n.backlogFlits + buffered + inPipes
	if total != n.genFlits {
		panic(fmt.Sprintf(
			"network: flit conservation violated at cycle %d: generated %d != delivered %d + dropped %d + backlog %d + buffered %d + in-pipes %d (= %d)",
			n.cycle, n.genFlits, n.delFlitsAll, n.dropFlitsAll, n.backlogFlits, buffered, inPipes, total))
	}
	for _, r := range n.routers {
		if err := r.AuditAlloc(); err != nil {
			panic(fmt.Sprintf("network: derived state violated at cycle %d: %v", n.cycle, err))
		}
	}
}

// drained reports whether every generated flit has been delivered or
// dropped, all source queues are empty, and — under the reliability
// protocol — every logical packet is resolved (delivered, or given up with
// a reason). A pending retransmission timer keeps the run alive even when
// no flit is in flight: the source still owes the network a copy.
func (n *Network) drained() bool {
	if n.backlogFlits != 0 || n.genFlits != n.delFlitsAll+n.dropFlitsAll {
		return false
	}
	return n.rel == nil || n.rel.Pending() == 0
}

// Run executes the configured simulation to termination and returns the
// measurements.
func (n *Network) Run() Result {
	res, _ := n.RunHooked(nil)
	return res
}

// RunHooked executes like Run but invokes hook at every cycle boundary
// (after the Step completes, before termination checks). The hook may
// snapshot the network — boundaries are the only valid snapshot points —
// and returning true stops the run early; the second result reports such
// an interruption. A nil hook degrades to Run exactly.
func (n *Network) RunHooked(hook func() (stop bool)) (Result, bool) {
	// Ensure measurement still starts when WarmupPackets is zero — but
	// never restart it on a resumed network (measureStart and the activity
	// counters carry over from the snapshot).
	if n.cfg.WarmupPackets == 0 && !n.measuring {
		n.beginMeasurement()
	}
	saturated := false
	for {
		n.Step()
		if hook != nil && hook() {
			return n.collect(false, false), true
		}
		if n.generated >= n.targetPackets() {
			if n.drained() {
				break
			}
			// Inactivity rule for faulty (or deadlocked) networks. The
			// clock is lastProgress so a pending retransmission timer (a
			// liveness mechanism, not live traffic) cannot stop the rule
			// from firing on a wedged network.
			last := n.lastProgress
			if last < n.measureStart {
				last = n.measureStart
			}
			if n.cycle-last > n.cfg.InactivityLimit {
				n.watchdog = n.buildWatchdog()
				break
			}
		}
		if n.cycle >= n.cfg.MaxCycles {
			saturated = true
			break
		}
	}
	return n.collect(saturated, true), false
}

// collect aggregates measurements into a Result. ended marks a run that
// terminated, as opposed to one a RunHooked hook stopped at a cycle
// boundary: only an ended run closes the partial telemetry epoch, so a
// stopped network continues (in process or from a checkpoint taken at
// the stop) exactly as if it had never stopped.
func (n *Network) collect(saturated, ended bool) Result {
	n.stopWorkers()
	// Replay any outstanding sleep so per-router activity is complete.
	for id := range n.lastRun {
		n.settleTo(id, n.cycle-1)
	}
	n.audit() // conservation always holds at termination
	if n.tele != nil && ended {
		// Flush the final partial epoch (idempotent when the clock sits
		// exactly on an epoch boundary).
		n.tele.Sample(n.cycle, n.routers, n.telemetryCounters())
	}
	res := Result{
		Latency:        n.latency,
		Completion:     n.completion,
		MeasuredCycles: n.cycle - n.measureStart,
		TotalCycles:    n.cycle,
		DeliveredFlits: n.deliveredFlits,
		Saturated:      saturated,
		DroppedFlits:   n.dropFlitsAll,
		Drops:          n.drops,
		BrokenPackets:  int64(n.broken.Len()),
		Watchdog:       n.watchdog,
	}
	if n.tele != nil {
		res.Telemetry = n.tele.Snapshot()
	}
	if n.rel != nil {
		res.Retransmissions = n.rel.Retransmissions()
		res.RecoveredPackets = n.rel.Recovered()
		res.DuplicatePackets = n.dupPackets
		res.DuplicateFlits = n.dupFlits
		res.GiveUps = n.rel.GiveUps()
		// Residual loss: give-ups are decided losses; entries still
		// pending here were cut off mid-recovery (watchdog or MaxCycles
		// terminations only — a drained run has none).
		res.ResidualLoss = int64(len(res.GiveUps) + n.rel.Pending())
	}
	for i, ev := range n.faultLog {
		res.FaultLog = append(res.FaultLog, FaultRecord{
			Event:       ev,
			Degradation: metrics.MeasureDegradation(n.buckets, n.goodBuckets, bucketCycles, ev.Cycle, 8, 0.7),
			Drops:       n.faultDrops[i],
		})
	}
	res.PerRouter = make([]router.Activity, len(n.routers))
	for i, r := range n.routers {
		res.PerRouter[i] = *r.Activity()
		res.Activity.Add(r.Activity())
		res.Contention.Add(r.Contention())
	}
	// Die-to-die traffic splits out of the link-flit total so the power
	// layer can price boundary crossings at the off-chip energy.
	for _, l := range n.links {
		if n.topo.LinkClass(l.up, l.out) == topology.D2D {
			res.D2DLinkFlits += res.PerRouter[l.up].LinkFlitsByDir[l.out]
		}
	}
	res.Summary = metrics.Summary{
		AvgLatency:    n.latency.Average(),
		P95Latency:    n.latency.Quantile(0.95),
		P99Latency:    n.latency.Quantile(0.99),
		MaxLatency:    n.latency.Max(),
		DeliveredPkts: n.completion.Delivered,
		GeneratedPkts: n.completion.Generated,
		Completion:    n.completion.Probability(),
		ThroughputFNC: metrics.Throughput(n.deliveredFlits, res.MeasuredCycles, n.topo.Nodes()),
		Cycles:        n.cycle,
		AvgSourceQ:    n.srcQueue.Mean(),
		ContentionRow: res.Contention.RowProbability(),
		ContentionCol: res.Contention.ColProbability(),
		ContentionAll: res.Contention.Probability(),
	}
	return res
}

// WindowPoint is one fixed-width time window's delivery statistics.
type WindowPoint struct {
	// StartCycle is the window's first cycle.
	StartCycle int64
	// Delivered counts packets completed in the window.
	Delivered int64
	// AvgLatency is the mean latency of those packets (0 when none).
	AvgLatency float64
	// Dropped counts flits discarded in the window (fault recovery).
	Dropped int64
}

// RunWindows executes the configured simulation while splitting delivered-
// packet statistics into fixed-width windows, for time-series views of
// warm-up convergence and traffic burstiness. It must be called instead of
// Run, before any stepping; it runs Run's loop with a per-cycle hook, so
// the Result is Run's.
func (n *Network) RunWindows(windowCycles int64) (Result, []WindowPoint) {
	if windowCycles < 1 {
		panic("network: window width must be >= 1")
	}
	var points []WindowPoint
	cur := WindowPoint{StartCycle: n.cycle}
	var latSum float64
	flush := func() {
		if cur.Delivered > 0 {
			cur.AvgLatency = latSum / float64(cur.Delivered)
		}
		points = append(points, cur)
	}

	// Per-window deltas are reconstructed from the global accumulator
	// (count and running sum) after each cycle.
	lastCount := n.latency.Count()
	lastSum := n.latency.Average() * float64(lastCount)
	lastDropped := n.dropFlitsAll
	res, _ := n.RunHooked(func() bool {
		count := n.latency.Count()
		sum := n.latency.Average() * float64(count)
		cur.Delivered += count - lastCount
		cur.Dropped += n.dropFlitsAll - lastDropped
		latSum += sum - lastSum
		lastCount, lastSum, lastDropped = count, sum, n.dropFlitsAll
		if n.cycle-cur.StartCycle >= windowCycles {
			flush()
			cur = WindowPoint{StartCycle: n.cycle}
			latSum = 0
		}
		return false
	})
	flush()
	return res, points
}

// SampleTraces arms packet-journey sampling: from the next generated
// packet on, every packet whose ID is a multiple of every gets a trace
// record (0 stops sampling). Sampling is by packet ID, so a network
// resumed from a snapshot and armed alike traces the same packets as the
// run that wrote it.
func (n *Network) SampleTraces(every uint64) { n.traceEvery = every }

// Traces returns the sampled packet journeys (empty unless SampleTraces
// armed sampling).
func (n *Network) Traces() []*trace.Record { return n.tracer.Records() }
