// Package trace records per-packet journeys through the network: which
// routers a packet visited, when, and how long each hop took. Tracing is
// sampling-based — the network attaches a recorder to selected packets'
// head flits — so it costs nothing for untraced traffic.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Visit is one router observation of a traced packet.
type Visit struct {
	// Node is the router (or PE) that observed the flit.
	Node int
	// Cycle is the observation time.
	Cycle int64
	// Kind describes the observation.
	Kind VisitKind
	// Reason qualifies Dropped observations (zero-valued otherwise).
	Reason DropReason
}

// DropReason distinguishes why fault handling discarded a packet. The
// three causes have very different recovery implications: an
// unroutable-at-source packet never entered the network, a broken-in-flight
// packet lost part of its wormhole to a live fault, and a dead-node drain
// is collateral traffic discarded by a router that was killed whole.
type DropReason uint8

const (
	// DropUnroutable: the source PE discarded the packet because the
	// installed faults leave its first hop (or local ejection) unservable.
	DropUnroutable DropReason = iota
	// DropInFlight: a fault broke the packet while it was in the network —
	// a condemned buffer, a doomed wormhole, or a route that a new fault
	// made permanently unservable mid-journey.
	DropInFlight
	// DropDeadNode: a router that died whole drained the arriving flit.
	DropDeadNode
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropUnroutable:
		return "unroutable-at-source"
	case DropInFlight:
		return "broken-in-flight"
	case DropDeadNode:
		return "dead-node-drain"
	default:
		return "?"
	}
}

// VisitKind classifies trace events.
type VisitKind uint8

const (
	// Injected: the head flit entered the network at its source router.
	Injected VisitKind = iota
	// Arrived: the head flit was buffered at a router.
	Arrived
	// Delivered: the head flit reached its destination PE.
	Delivered
	// Dropped: fault handling discarded the packet. Visit.Reason carries
	// the distinct cause (unroutable at source, broken in flight, or
	// drained by a dead node).
	Dropped
)

// String names the event.
func (k VisitKind) String() string {
	switch k {
	case Injected:
		return "inject"
	case Arrived:
		return "arrive"
	case Delivered:
		return "deliver"
	case Dropped:
		return "drop"
	default:
		return "?"
	}
}

// Record is the journey of one traced packet.
type Record struct {
	PacketID  uint64
	Src, Dst  int
	CreatedAt int64
	Visits    []Visit
}

// Visit appends one observation. Records are owned by a single packet and
// touched from the (single-threaded) simulation loop; no locking needed.
func (r *Record) Visit(node int, cycle int64, kind VisitKind) {
	r.Visits = append(r.Visits, Visit{Node: node, Cycle: cycle, Kind: kind})
}

// Drop appends a Dropped observation with its cause.
func (r *Record) Drop(node int, cycle int64, reason DropReason) {
	r.Visits = append(r.Visits, Visit{Node: node, Cycle: cycle, Kind: Dropped, Reason: reason})
}

// HopLatencies returns the cycle deltas between consecutive observations —
// the per-hop latency breakdown.
func (r *Record) HopLatencies() []int64 {
	if len(r.Visits) < 2 {
		return nil
	}
	out := make([]int64, 0, len(r.Visits)-1)
	for i := 1; i < len(r.Visits); i++ {
		out = append(out, r.Visits[i].Cycle-r.Visits[i-1].Cycle)
	}
	return out
}

// Completed reports whether the packet reached its destination.
func (r *Record) Completed() bool {
	return len(r.Visits) > 0 && r.Visits[len(r.Visits)-1].Kind == Delivered
}

// String renders the journey on one line, e.g.
//
//	pkt 42: 3 ->(2) 4 ->(5) 12 [deliver @118]
func (r *Record) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pkt %d %d->%d:", r.PacketID, r.Src, r.Dst)
	for i, v := range r.Visits {
		kind := v.Kind.String()
		if v.Kind == Dropped {
			kind = fmt.Sprintf("%s(%s)", v.Kind, v.Reason)
		}
		if i == 0 {
			fmt.Fprintf(&sb, " %s@%d n%d", kind, v.Cycle, v.Node)
			continue
		}
		fmt.Fprintf(&sb, " ->(%d) %s n%d", v.Cycle-r.Visits[i-1].Cycle, kind, v.Node)
	}
	return sb.String()
}

// Collector accumulates the records of all traced packets in a run. It is
// safe for concurrent use (parallel experiment sweeps share nothing, but
// the guard is cheap and prevents accidents).
type Collector struct {
	mu      sync.Mutex
	records []*Record
}

// NewRecord registers and returns a fresh record for one packet.
func (c *Collector) NewRecord(packetID uint64, src, dst int, createdAt int64) *Record {
	// A journey on an 8x8 mesh is injection + up to 14 hops + delivery;
	// sizing Visits up front keeps traced runs off the append-regrow path.
	r := &Record{
		PacketID: packetID, Src: src, Dst: dst, CreatedAt: createdAt,
		Visits: make([]Visit, 0, 16),
	}
	c.mu.Lock()
	c.records = append(c.records, r)
	c.mu.Unlock()
	return r
}

// Records returns the collected journeys sorted by packet ID.
func (c *Collector) Records() []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Record, len(c.records))
	copy(out, c.records)
	sort.Slice(out, func(i, j int) bool { return out[i].PacketID < out[j].PacketID })
	return out
}

// Len returns the number of traced packets.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}
