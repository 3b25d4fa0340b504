// Package flit defines the unit of on-chip network transfer. A packet is
// segmented into flits (flow-control digits): one head flit carrying the
// routing state, zero or more body flits, and a tail flit that releases the
// wormhole. The paper's configuration is four 128-bit flits per packet.
package flit

import (
	"fmt"

	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// Type distinguishes the role of a flit inside its packet.
type Type uint8

const (
	// Head is the first flit of a packet; it carries routing information
	// and performs VC allocation.
	Head Type = iota
	// Body is an interior flit; it follows the wormhole opened by the head.
	Body
	// Tail is the final flit; delivering it releases the packet's VCs.
	Tail
	// HeadTail marks a single-flit packet (head and tail at once).
	HeadTail
)

// String returns a one-letter mnemonic for the flit type.
func (t Type) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "X"
	default:
		return "?"
	}
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// RouteMode records the oblivious dimension order chosen for a packet at
// injection time. XY routing always uses XFirst; XY-YX routing picks XFirst
// or YFirst with equal probability per packet; adaptive routing sets
// ModeAdaptive.
type RouteMode uint8

const (
	// XFirst routes the packet fully in X, then in Y (dimension order).
	XFirst RouteMode = iota
	// YFirst routes the packet fully in Y, then in X.
	YFirst
	// ModeAdaptive lets each hop pick any minimal productive direction.
	ModeAdaptive
)

// String names the route mode.
func (m RouteMode) String() string {
	switch m {
	case XFirst:
		return "XY"
	case YFirst:
		return "YX"
	case ModeAdaptive:
		return "AD"
	default:
		return "?"
	}
}

// Flit is a single flow-control digit in flight. Flits are allocated once
// per packet transfer and mutated in place as they progress hop by hop.
type Flit struct {
	// Type is the flit's role in its packet.
	Type Type
	// PacketID identifies the owning packet uniquely across the run.
	PacketID uint64
	// Seq is the flit's index within the packet (0 = head).
	Seq int
	// Src and Dst are the injecting and destination node IDs.
	Src, Dst int
	// Mode is the packet's dimension-order discipline (see RouteMode).
	Mode RouteMode
	// OutPort is the output port the flit will request at the router it is
	// currently heading to (or buffered in). It is produced by look-ahead
	// routing at the upstream router and stamped before link traversal;
	// topology.Local means "eject here".
	OutPort topology.Direction
	// VC is the virtual-channel index (within the destination input
	// structure of the current link) allocated by the upstream router's VA.
	// Its interpretation is router-specific; -1 means "no VC" (used for
	// early-ejected flits, which bypass buffering entirely).
	VC int
	// CreatedAt is the cycle the packet was generated at the source PE
	// (before source queuing); latency is measured from here.
	CreatedAt int64
	// InjectedAt is the cycle the head flit entered the network proper.
	InjectedAt int64
	// Hops counts link traversals so far (maintained by the simulator).
	Hops int
	// ReadyAt is the first cycle the flit may participate in allocation at
	// its current router. Arrival sets it to the cycle after buffering;
	// fault-recovery mechanisms (double routing, virtual queuing) impose
	// their latency penalties by pushing it further out.
	ReadyAt int64
	// CrossedX and CrossedY record torus dateline crossings in each
	// dimension; packets on a torus switch to the second VC class of a
	// dimension after crossing its dateline (unused on meshes).
	CrossedX, CrossedY bool
	// Rec, when non-nil on a head flit, collects the packet's journey
	// (sampled tracing); routers record arrivals, deliveries and drops.
	Rec *trace.Record
	// Penalty is extra buffering delay the flit must pay on its next
	// arrival, charged by the sender. The double-routing recovery scheme
	// uses it: a router with a failed RC unit cannot look ahead, so the
	// downstream router performs current-node routing first (+1 cycle).
	// Consumed (reset) when the flit is buffered.
	Penalty int64
	// SrcSeq is the per-source end-to-end sequence number of the logical
	// packet, stamped by the reliability protocol at first injection and
	// preserved across retransmissions. Zero when the protocol is off.
	SrcSeq uint64
	// Origin is the PacketID of the logical packet's first transmission
	// attempt. Retransmitted copies carry fresh PacketIDs (the physical
	// identity routers and the broken-set key on) but keep Origin, so
	// measurement windows and traces follow the logical packet. Equal to
	// PacketID on first attempts and whenever the protocol is off.
	Origin uint64

	// pooled guards against double-recycling: set by Pool.Put, cleared by
	// Pool.Get. A live flit always reads false.
	pooled bool
}

// String renders a compact debugging representation.
func (f *Flit) String() string {
	return fmt.Sprintf("%s pkt=%d seq=%d %d->%d out=%s vc=%d", f.Type, f.PacketID, f.Seq, f.Src, f.Dst, f.OutPort, f.VC)
}

// Packet describes a packet to be injected. The simulator segments it into
// flits at the source PE.
type Packet struct {
	ID        uint64
	Src, Dst  int
	Flits     int
	CreatedAt int64
	Mode      RouteMode
	// SrcSeq and Origin carry the end-to-end reliability identity (see the
	// same fields on Flit). The network stamps Origin = ID on every first
	// attempt, so the two identities coincide whenever the protocol is off;
	// retransmissions keep the origin's value. Standalone router harnesses
	// may leave both zero.
	SrcSeq uint64
	Origin uint64
}
