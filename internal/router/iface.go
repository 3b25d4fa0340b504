package router

import (
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// Sink receives flits delivered to node's processing element. Delivery of
// a tail flit completes a packet.
type Sink func(node int, f *flit.Flit, cycle int64)

// DropSink receives flits the router of node discards, tagged with the
// distinct cause (broken in flight vs drained by a dead node; the network
// adds unroutable-at-source drops itself, before injection).
type DropSink func(node int, f *flit.Flit, cycle int64, reason trace.DropReason)

// Router is the contract every router microarchitecture implements. A
// router is built with its whole network context — the route engine
// carries the delivery and drop sinks, the broken-packet registry, the
// reap horizon and the kernel's full-tick switch — so the network only
// wires it to its links, drives one Tick per cycle, and injects/ejects
// traffic through the PE-facing methods.
//
// Within Tick a router (1) drains its input and credit pipes, buffering or
// early-ejecting arrivals, (2) runs its allocation stages (VA and SA, with
// head flits speculating on SA in parallel with VA), and (3) forwards
// switch winners onto its output pipes and returns credits upstream. Pipes
// advance at cycle boundaries, so routers may be ticked in any order.
type Router interface {
	// StallScan and WaitEdges feed the watchdog's diagnostic and the
	// deadlock detector. Implemented by the embedded Chassis.
	StallSource
	WaitGraphSource

	// AttachInput wires the link arriving on side d (flits in, credits
	// out). The network attaches only the links that exist; mesh edge
	// routers keep nil on the missing sides.
	AttachInput(d topology.Direction, c *Conn)
	// AttachOutput wires the link departing on side d (flits out, credits
	// in). The router finds the downstream router through its engine —
	// the neighbour it consults for the handshake: fault capability
	// (CanServe), congestion (CongestionCost) and claims — and sizes the
	// link's credit book from that router's NumInputVCs/InputVCDepth. The
	// network attaches outputs after every router is built and static
	// faults are installed, so buffer-fault capacity reductions are
	// reflected. Implemented by the embedded Chassis.
	AttachOutput(d topology.Direction, c *Conn)

	// Tick advances the router one cycle.
	Tick(cycle int64)

	// TryInject offers the next flit of the PE's current packet. The head
	// flit carries OutPort (this router's output for it, or Local for a
	// self-addressed packet) already computed by the PE. The router accepts
	// it only if injection buffering and VC allocation permit; acceptance
	// of a head implies the router owns the packet's injection VC until its
	// tail is accepted. Returns false when the flit must be retried next
	// cycle.
	TryInject(f *flit.Flit, cycle int64) bool

	// ApplyFault installs a permanent fault, either before the simulation
	// starts or live mid-run (the network's fault schedule). The embedded
	// Chassis supplies the baselines' reaction, blocking the whole node
	// (Kill); the RoCo router overrides it with its hardware-recycling
	// reaction per component. A live installation additionally condemns
	// the traffic resident in the failed datapath so in-flight wormholes
	// drain (as drops) instead of wedging; the network then re-propagates
	// the neighbor handshake via RefreshOutput.
	ApplyFault(flt fault.Fault)
	// SeverPort permanently cuts port d in both directions (a die-to-die
	// interface fault on a multi-chip topology). The router dooms resident
	// packets routed through the port, reports zero depths for it, denies
	// CanServe through it, and drops anything still arriving on it; the
	// network severs both endpoints of every boundary link of the struck
	// interface and then re-propagates the neighbor handshake. Implemented
	// by the embedded Chassis.
	SeverPort(d topology.Direction)
	// RefreshOutput re-reads the downstream router's input-VC depths into
	// the credit book of output d after a runtime fault changed them (the
	// credit half of the neighbor handshake). Implemented by the embedded
	// Chassis.
	RefreshOutput(d topology.Direction)
	// CanServe reports whether a flit entering on side from and leaving
	// through out can currently be served, given installed faults. Local
	// out means ejection. Upstream routers consult it (the paper's
	// handshaking signals) during look-ahead routing and VC allocation.
	CanServe(from, out topology.Direction) bool
	// CongestionCost estimates queueing pressure for traffic leaving this
	// router through out; look-ahead adaptive routing at the upstream node
	// uses it to rank productive directions. Higher is worse.
	CongestionCost(out topology.Direction) float64
	// NumInputVCs returns the size of the VC namespace a link arriving on
	// side from addresses, and InputVCDepth the usable depth of each such
	// VC (0 for a dead channel); the upstream router sizes and refreshes
	// its credit book from them, so buffer-fault capacity reductions
	// propagate.
	NumInputVCs(from topology.Direction) int
	InputVCDepth(from topology.Direction, vc int) int

	// ClaimableMask returns the input VCs of side from that are free for a
	// new packet, as a bitmap over the side's namespace, and ClaimInputVC
	// reserves one. Upstream VA fetches the mask once per output per cycle
	// and ANDs it into candidate masks: guided flit queuing lets several
	// upstream links feed one channel, so the reservation must live here
	// at the owning router. ClaimInputVC re-checks, and returns false if
	// another upstream claimed the channel earlier in the same cycle.
	ClaimableMask(from topology.Direction) uint64
	ClaimInputVC(from topology.Direction, vc int) bool
	// ReleaseInputVC returns a claim previously taken with ClaimInputVC
	// whose packet will never arrive: fault recovery withdraws the
	// upstream grant before any flit streamed.
	ReleaseInputVC(from topology.Direction, vc int)

	// BufferedFlits counts the flits currently buffered in the router's
	// channels (the conservation auditor's in-router term).
	BufferedFlits() int
	// AuditAlloc recomputes the allocation bitmaps from the channels, and
	// each output's credit-book depths from the downstream router, and
	// reports an error when the incrementally maintained copies disagree;
	// the network's auditor panics on it, on its AuditEvery cadence. It
	// allocates nothing unless it fails. Implemented by the embedded
	// Chassis.
	AuditAlloc() error

	// Activity exposes the per-component event counters for the energy
	// model.
	Activity() *Activity
	// VCOccupancy adds the router's currently buffered flits into per,
	// bucketed by each holding channel's path-set class (routing.Turn),
	// and returns the total added. Baseline routers do not assign
	// classes, so their whole occupancy lands in the zero-value bucket
	// (ContinueX); the RoCo router reports the real per-class split.
	// Telemetry samples it at epoch boundaries; it must not mutate
	// router state.
	VCOccupancy(per *[routing.NumClasses]int32) int
	// Contention exposes the switch-conflict tallies for Figure 3.
	Contention() *Contention

	// Idle reports whether ticking the router with empty input pipes would
	// be a pure no-op apart from the effects SkipCycles replays: every
	// channel dormant (no buffered flit, no resident packet state), so
	// nothing to sweep or allocate. The activity-gated kernel puts Idle
	// routers to sleep.
	Idle() bool
	// TakeWrites returns the link halves the router wrote since the last
	// call — flits onto its outputs, credits back over its inputs — and
	// clears them. The activity-gated kernel reads it after each tick to
	// advance only those pipes and wake their readers. Implemented by the
	// embedded Chassis.
	TakeWrites() WriteMask
	// SkipCycles replays the state effects of n consecutive idle ticks in
	// O(1): activity cycle counting and any arbitration state that moves
	// even without requests (the RoCo mirror's primary-port toggle). The
	// kernel calls it when waking a slept router so gated and ungated
	// executions stay bit-identical.
	SkipCycles(n int64)

	// State streams the router's complete mutable state (channels, credit
	// books, arbiter pointers, fault flags, counters) in either direction:
	// a saving stream writes it for a checkpoint, a loading stream restores
	// it into a freshly built router of the same configuration. It is
	// called only at cycle boundaries, with every kernel worker parked, and
	// a load reports failures through the stream's error, never a panic.
	State(s *snapshot.Stream, c *flit.Codec)
}
