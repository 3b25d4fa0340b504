// Package telemetry implements the epoch-based time-series collector
// behind Config.TelemetryEvery: a fixed-size ring of preallocated epoch
// records, each snapshotting the per-router and per-module counters the
// paper's evaluation reasons about — link and crossbar utilization, VC
// occupancy by path-set class (dx/dy/txy/tyx/Inj*), switch-allocator
// grants and conflicts, early-ejection hits, credit stalls,
// retransmission activity, and the per-module energy split of the power
// model.
//
// The collector is sampled by the simulation coordinator at epoch
// boundaries, after every kernel barrier has been crossed: the routers'
// event counters are updated at event time identically by the
// reference, activity-gated, and sharded kernels, so the sampled stream
// is bit-identical across kernels and sampling never perturbs a run
// (the bit-identical-Results contract). Nothing in the per-cycle hot
// path touches the collector — a disabled collector costs one int64
// comparison per cycle in the network, and an enabled one allocates
// only at construction time.
//
// Concurrency: the simulation goroutine calls Sample; HTTP handlers
// (see Metrics) read concurrently through the same mutex. The lock is
// taken once per epoch and once per scrape, never per cycle.
package telemetry

import (
	"sync"

	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
)

// DefaultCapacity is the epoch-ring size when Config.Capacity is zero:
// enough history for a long run at coarse epochs while bounding memory
// (a 64-node epoch record is ~12 KB).
const DefaultCapacity = 512

// Config sizes a collector.
type Config struct {
	// Every is the epoch length in cycles (must be > 0; the network
	// simply builds no collector when telemetry is off).
	Every int64
	// Capacity bounds the ring in epochs (0 selects DefaultCapacity).
	// When the ring is full the oldest epoch is evicted; cumulative
	// totals survive eviction.
	Capacity int
	// Nodes is the router count.
	Nodes int
	// Links[i] is node i's live outgoing link count, the denominator of
	// its link-utilization series (mesh edge nodes have fewer links).
	Links []int
	// Profile prices the per-module energy series. A zero profile
	// yields all-zero energy series (direct network users who did not
	// thread a power profile through still get the activity series).
	Profile power.Profile
}

// NodeSample is one router's activity during one epoch: deltas of the
// per-event counters plus an instantaneous VC-occupancy snapshot taken
// at the epoch boundary.
type NodeSample struct {
	LinkFlits          int64
	CrossbarTraversals int64
	BufferWrites       int64
	BufferReads        int64
	VAOps              int64
	VAGrants           int64
	SAOps              int64
	SAGrants           int64
	RouteComputations  int64
	Ejections          int64
	EarlyEjections     int64
	DroppedFlits       int64
	CreditStalls       int64
	// Occupancy is the flits buffered at the epoch's closing cycle,
	// split by path-set class (indexed by routing.Turn; baseline
	// routers report everything under ContinueX).
	Occupancy [routing.NumClasses]int32
	// OccupancyTotal sums Occupancy.
	OccupancyTotal int32
}

// LinkUtilization returns the node's mean outgoing-link utilization in
// flits per link per cycle over the epoch.
func (s *NodeSample) LinkUtilization(links int, cycles int64) float64 {
	if links <= 0 || cycles <= 0 {
		return 0
	}
	return float64(s.LinkFlits) / float64(links) / float64(cycles)
}

// Epoch is one closed sampling interval (StartCycle, EndCycle].
type Epoch struct {
	// Index is the epoch's global sequence number, stable across ring
	// eviction.
	Index int64
	// StartCycle/EndCycle delimit the interval; Cycles is its width.
	StartCycle int64
	EndCycle   int64
	Cycles     int64

	// Network-wide flit-ledger deltas (reconciled against the
	// flit-conservation auditor by the telemetry tests).
	Generated int64
	Delivered int64
	Dropped   int64

	// Reliable-delivery protocol deltas (zero without Config.Reliable).
	Retransmissions int64
	Recovered       int64
	GiveUps         int64

	// Aggregates over all nodes.
	LinkFlits      int64
	CrossbarFlits  int64
	SAGrants       int64
	SAConflicts    int64 // contended switch requests (Figure 3 numerator)
	CreditStalls   int64
	Ejections      int64
	EarlyEjections int64
	Occupancy      [routing.NumClasses]int64
	OccupancyTotal int64

	// Energy is the epoch's per-module energy split. Dynamic terms
	// price the epoch's event deltas; leakage is LeakagePerCycle x
	// nodes x Cycles, synthesized network-side so the stream never
	// reads the per-router cycle counters (which lag in the gated
	// kernel until wake-up replay).
	Energy power.Breakdown

	// Nodes is the per-router split, indexed by node id.
	Nodes []NodeSample
}

// Totals accumulates every epoch ever sampled, surviving ring eviction;
// the Prometheus counters are served from here.
type Totals struct {
	Epochs int64
	Cycles int64

	Generated int64
	Delivered int64
	Dropped   int64

	Retransmissions int64
	Recovered       int64
	GiveUps         int64

	LinkFlits      int64
	CrossbarFlits  int64
	SAGrants       int64
	SAConflicts    int64
	CreditStalls   int64
	Ejections      int64
	EarlyEjections int64

	Energy power.Breakdown
}

// NetSample is the network-side counter snapshot handed to Sample: the
// flit-conservation ledger plus the reliability tracker's counters, all
// cumulative since the start of the run.
type NetSample struct {
	GenFlits        int64
	DelFlits        int64
	DropFlits       int64
	Retransmissions int64
	Recovered       int64
	GiveUps         int64
}

// Series is an immutable snapshot of a collector: the retained epochs
// in chronological order plus the eviction-proof totals. It is the
// programmatic result surface (network Result.Telemetry).
type Series struct {
	// Every is the epoch length in cycles.
	Every int64
	// Nodes is the router count; Links the per-node live link counts.
	Nodes int
	Links []int
	// Epochs lists the retained epochs, oldest first.
	Epochs []Epoch
	// Evicted counts epochs pushed out of the ring (their contribution
	// survives in Totals).
	Evicted int64
	// Totals accumulates every epoch ever sampled.
	Totals Totals
}

// Collector samples router and network counters into the epoch ring.
type Collector struct {
	mu  sync.Mutex
	cfg Config

	ring    []Epoch
	start   int // ring index of the oldest retained epoch
	count   int // retained epochs
	evicted int64

	lastCycle int64
	prevAct   []router.Activity
	prevCont  router.Contention
	prevNet   NetSample
	scratch   router.Activity // per-epoch summed delta, for energy pricing

	totals Totals
}

// New builds a collector, preallocating the full ring (including every
// epoch's Nodes slice) so Sample never allocates.
func New(cfg Config) *Collector {
	if cfg.Every <= 0 {
		panic("telemetry: Every must be > 0")
	}
	if cfg.Nodes <= 0 {
		panic("telemetry: Nodes must be > 0")
	}
	if len(cfg.Links) != cfg.Nodes {
		panic("telemetry: Links must have one entry per node")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	c := &Collector{
		cfg:     cfg,
		ring:    make([]Epoch, cfg.Capacity),
		prevAct: make([]router.Activity, cfg.Nodes),
	}
	for i := range c.ring {
		c.ring[i].Nodes = make([]NodeSample, cfg.Nodes)
	}
	return c
}

// Sample closes the epoch ending at cycle: it reads every router's
// event counters (deltas against the previous epoch), snapshots VC
// occupancy, prices the epoch's energy, and folds the network ledger
// deltas in. Allocation-free. A call with no elapsed cycles is a no-op,
// so the final partial-epoch flush at collection time is idempotent.
//
// The caller must guarantee quiescence: all kernel workers parked, no
// router mid-tick. The network calls it from the coordinator at cycle
// boundaries.
func (c *Collector) Sample(cycle int64, routers []router.Router, net NetSample) {
	cycles := cycle - c.lastCycle
	if cycles <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Claim the next ring slot, evicting the oldest epoch when full.
	var slot int
	if c.count < len(c.ring) {
		slot = (c.start + c.count) % len(c.ring)
		c.count++
	} else {
		slot = c.start
		c.start = (c.start + 1) % len(c.ring)
		c.evicted++
	}
	e := &c.ring[slot]
	nodes := e.Nodes
	*e = Epoch{
		Index:      c.totals.Epochs,
		StartCycle: c.lastCycle,
		EndCycle:   cycle,
		Cycles:     cycles,
		Nodes:      nodes,
	}

	c.scratch = router.Activity{}
	var cont router.Contention
	for i, r := range routers {
		cur := r.Activity()
		prev := &c.prevAct[i]
		ns := &e.Nodes[i]
		*ns = NodeSample{
			LinkFlits:          cur.LinkFlits - prev.LinkFlits,
			CrossbarTraversals: cur.CrossbarTraversals - prev.CrossbarTraversals,
			BufferWrites:       cur.BufferWrites - prev.BufferWrites,
			BufferReads:        cur.BufferReads - prev.BufferReads,
			VAOps:              cur.VAOps - prev.VAOps,
			VAGrants:           cur.VAGrants - prev.VAGrants,
			SAOps:              cur.SAOps - prev.SAOps,
			SAGrants:           cur.SAGrants - prev.SAGrants,
			RouteComputations:  cur.RouteComputations - prev.RouteComputations,
			Ejections:          cur.Ejections - prev.Ejections,
			EarlyEjections:     cur.EarlyEjections - prev.EarlyEjections,
			DroppedFlits:       cur.DroppedFlits - prev.DroppedFlits,
			CreditStalls:       cur.CreditStalls - prev.CreditStalls,
		}
		ns.OccupancyTotal = int32(r.VCOccupancy(&ns.Occupancy))
		// Deliberately not copying cur.Cycles into the delta: the
		// per-router cycle counter lags under the activity-gated kernel
		// (sleep is replayed at wake-up), so reading it would make the
		// stream kernel-dependent. Leakage is synthesized below from
		// the epoch width instead.
		*prev = *cur
		cont.Add(r.Contention())

		c.scratch.LinkFlits += ns.LinkFlits
		c.scratch.CrossbarTraversals += ns.CrossbarTraversals
		c.scratch.BufferWrites += ns.BufferWrites
		c.scratch.BufferReads += ns.BufferReads
		c.scratch.VAOps += ns.VAOps
		c.scratch.SAOps += ns.SAOps
		c.scratch.RouteComputations += ns.RouteComputations
		c.scratch.Ejections += ns.Ejections
		c.scratch.EarlyEjections += ns.EarlyEjections

		e.SAGrants += ns.SAGrants
		e.CreditStalls += ns.CreditStalls
		e.Ejections += ns.Ejections
		e.EarlyEjections += ns.EarlyEjections
		for cl, occ := range ns.Occupancy {
			e.Occupancy[cl] += int64(occ)
		}
		e.OccupancyTotal += int64(ns.OccupancyTotal)
	}
	e.LinkFlits = c.scratch.LinkFlits
	e.CrossbarFlits = c.scratch.CrossbarTraversals
	e.SAConflicts = (cont.RowFailures + cont.ColFailures) -
		(c.prevCont.RowFailures + c.prevCont.ColFailures)
	c.prevCont = cont

	e.Generated = net.GenFlits - c.prevNet.GenFlits
	e.Delivered = net.DelFlits - c.prevNet.DelFlits
	e.Dropped = net.DropFlits - c.prevNet.DropFlits
	e.Retransmissions = net.Retransmissions - c.prevNet.Retransmissions
	e.Recovered = net.Recovered - c.prevNet.Recovered
	e.GiveUps = net.GiveUps - c.prevNet.GiveUps
	c.prevNet = net

	// Per-module energy: dynamic terms from the epoch's event deltas,
	// leakage synthesized from the epoch width (see above).
	c.scratch.Cycles = cycles * int64(c.cfg.Nodes)
	e.Energy = power.AccountDetailed(c.cfg.Profile, &c.scratch)

	c.totals.Epochs++
	c.totals.Cycles += cycles
	c.totals.Generated += e.Generated
	c.totals.Delivered += e.Delivered
	c.totals.Dropped += e.Dropped
	c.totals.Retransmissions += e.Retransmissions
	c.totals.Recovered += e.Recovered
	c.totals.GiveUps += e.GiveUps
	c.totals.LinkFlits += e.LinkFlits
	c.totals.CrossbarFlits += e.CrossbarFlits
	c.totals.SAGrants += e.SAGrants
	c.totals.SAConflicts += e.SAConflicts
	c.totals.CreditStalls += e.CreditStalls
	c.totals.Ejections += e.Ejections
	c.totals.EarlyEjections += e.EarlyEjections
	c.totals.Energy.BuffersNJ += e.Energy.BuffersNJ
	c.totals.Energy.CrossbarNJ += e.Energy.CrossbarNJ
	c.totals.Energy.LinksNJ += e.Energy.LinksNJ
	c.totals.Energy.ArbitrationNJ += e.Energy.ArbitrationNJ
	c.totals.Energy.RoutingNJ += e.Energy.RoutingNJ
	c.totals.Energy.EjectionNJ += e.Energy.EjectionNJ
	c.totals.Energy.LeakageNJ += e.Energy.LeakageNJ

	c.lastCycle = cycle
}

// Totals returns the eviction-proof cumulative counters.
func (c *Collector) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// Snapshot deep-copies the retained epochs (oldest first) and totals
// into an immutable Series. Called once at collection time and per
// offline export; not a hot path.
func (c *Collector) Snapshot() *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Series{
		Every:   c.cfg.Every,
		Nodes:   c.cfg.Nodes,
		Links:   append([]int(nil), c.cfg.Links...),
		Epochs:  make([]Epoch, c.count),
		Evicted: c.evicted,
		Totals:  c.totals,
	}
	for i := 0; i < c.count; i++ {
		src := &c.ring[(c.start+i)%len(c.ring)]
		s.Epochs[i] = *src
		s.Epochs[i].Nodes = append([]NodeSample(nil), src.Nodes...)
	}
	return s
}

// SnapshotSince is Snapshot restricted to the retained epochs with
// Index greater than since — the incremental read behind live epoch
// streaming (pass the last Index already seen; -1 reads everything
// retained). Returns nil when no retained epoch is newer.
func (c *Collector) SnapshotSince(since int64) *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Epoch indices are assigned sequentially, so the retained window
	// [first, first+count) intersects (since, inf) in a contiguous tail.
	skip := 0
	if c.count > 0 {
		first := c.ring[c.start].Index
		if since >= first {
			skip = int(since - first + 1)
		}
	}
	if skip >= c.count {
		return nil
	}
	s := &Series{
		Every:   c.cfg.Every,
		Nodes:   c.cfg.Nodes,
		Links:   append([]int(nil), c.cfg.Links...),
		Epochs:  make([]Epoch, c.count-skip),
		Evicted: c.evicted,
		Totals:  c.totals,
	}
	for i := skip; i < c.count; i++ {
		src := &c.ring[(c.start+i)%len(c.ring)]
		s.Epochs[i-skip] = *src
		s.Epochs[i-skip].Nodes = append([]NodeSample(nil), src.Nodes...)
	}
	return s
}

// latestLocked returns the most recent epoch, or nil. Callers hold mu.
func (c *Collector) latestLocked() *Epoch {
	if c.count == 0 {
		return nil
	}
	return &c.ring[(c.start+c.count-1)%len(c.ring)]
}

// LinkUtilization returns the network-mean outgoing-link utilization of
// one epoch, in flits per link per cycle.
func (s *Series) LinkUtilization(e *Epoch) float64 {
	links := 0
	for _, l := range s.Links {
		links += l
	}
	if links == 0 || e.Cycles == 0 {
		return 0
	}
	return float64(e.LinkFlits) / float64(links) / float64(e.Cycles)
}

// CrossbarUtilization returns one epoch's mean crossbar traversals per
// node per cycle.
func (s *Series) CrossbarUtilization(e *Epoch) float64 {
	if s.Nodes == 0 || e.Cycles == 0 {
		return 0
	}
	return float64(e.CrossbarFlits) / float64(s.Nodes) / float64(e.Cycles)
}

// ClassName names occupancy class i with the paper's VC-class
// vocabulary (dx, dy, txy, tyx, Injxy, Injyx).
func ClassName(i int) string { return routing.Turn(i).String() }
