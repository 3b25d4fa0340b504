// Checkpoint/resume for a live network. SaveState serializes every piece
// of mutable simulation state — counters, fault bookkeeping, protocol
// tracker, telemetry ring, PE backlogs and RNG streams, router internals,
// and link pipes — at a cycle boundary; LoadState restores it into a
// network freshly built from the same Config. Both run the one layout,
// Network.state, over a snapshot.Stream of their direction. The contract
// is exactness: a resumed network continues bit-identically to one that
// never stopped, under every kernel (reference, gated, sharded) and both
// Reliable modes.
//
// Canonicalization makes that kernel-independence work. Before saving,
// every router is settled to cycle-1 (replaying any skipped idle cycles —
// a behavior-invariant operation, the same one beginMeasurement and
// collect already perform), so the byte stream never encodes which
// routers happened to be asleep under which kernel. On load the gated
// kernel wakes everything for one cycle; ticking an idle router is
// equivalent to skipping it (the same theorem that makes the gated kernel
// match the reference), so the resumed run re-converges to the original
// active set within a cycle while producing identical results.
package network

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/traffic"
)

// SaveState serializes the network's complete mutable state. It must be
// called at a cycle boundary — after a Step returned and before the next
// one starts — which is the only time the pipes' staged halves are
// provably empty. Workers are parked first (the pool restarts lazily on
// the next Step), so the traversal reads quiescent state.
func (n *Network) SaveState(e *snapshot.Encoder) {
	n.stopWorkers()
	if n.lastRun != nil {
		// Replay outstanding sleep so router state is canonical: identical
		// bytes regardless of kernel or of which routers were dormant.
		for id := range n.lastRun {
			n.settleTo(id, n.cycle-1)
		}
	}
	if len(n.graveyard) != 0 || len(n.advance) != 0 {
		panic("network: snapshot taken mid-cycle")
	}
	n.state(e.Stream())
}

// LoadState restores state written by SaveState into a network freshly
// built by New from the same Config. Failures surface through the
// decoder's sticky error; the network must be discarded if Err is
// non-nil afterwards (state may be partially applied, never silently
// wrong).
func (n *Network) LoadState(d *snapshot.Decoder) {
	if n.cycle != 0 || n.generated != 0 {
		d.Corruptf("loading network state into a stepped network")
		return
	}
	if n.state(d.Stream()); d.Err() != nil {
		return
	}
	if n.isLong != nil {
		// Rebuild the multi-cycle D2D advance list from the restored pipe
		// state: every long conn with traffic in transit (or a recovering
		// serializer) must keep advancing from the first resumed cycle.
		n.longActive = n.longActive[:0]
		for c := range n.conns {
			n.longOn[c] = false
			if n.isLong[c] && !n.conns[c].Quiescent() {
				n.longOn[c] = true
				n.longActive = append(n.longActive, c)
			}
		}
	}

	// Cross-check flit conservation before declaring the load good: the
	// CRC guards the bytes, this guards the semantics (a snapshot from a
	// structurally different run mislabeled as compatible).
	var buffered, inPipes int64
	for _, r := range n.routers {
		buffered += int64(r.BufferedFlits())
	}
	for i := range n.conns {
		inPipes += int64(n.conns[i].Flit.Occupancy())
	}
	if total := n.delFlitsAll + n.dropFlitsAll + n.backlogFlits + buffered + inPipes; total != n.genFlits {
		d.Corruptf("flit conservation violated on load: generated %d, accounted %d", n.genFlits, total)
		return
	}

	// Wake the gated kernel whole. The snapshot settled every router to
	// cycle-1, so lastRun picks up there and the first resumed cycle ticks
	// everything once; idle routers fall back out of the active set
	// immediately, re-converging to the original run's set with identical
	// state (an idle tick and a skipped-then-settled cycle are equivalent).
	if n.gatedKernel() {
		n.activeBits.SetFirst(len(n.routers))
		n.nextActiveBits.ClearAll()
		for id := range n.lastRun {
			n.lastRun[id] = n.cycle - 1
		}
	}
}

// state streams the network's mutable state in either direction. The
// checks that need the whole loaded network (flit conservation) follow
// it in LoadState.
func (n *Network) state(s *snapshot.Stream) {
	s.I64(&n.cycle)
	s.U64(&n.nextPacketID)
	s.I64(&n.generated)
	s.I64(&n.deliveredAll)
	s.I64(&n.genFlits)
	s.I64(&n.delFlitsAll)
	s.I64(&n.dropFlitsAll)
	s.I64(&n.backlogFlits)
	if n.cycle < 0 || n.generated < 0 || n.genFlits < 0 {
		s.Corruptf("negative network counters")
		return
	}

	// The trace collector goes first: flits reference its records by
	// pointer, and the codec relinks them by packet ID on load. Loaded
	// flits draw from the pool of their owning container's shard; pools
	// are empty on a fresh network, so Get falls through to plain
	// allocation either way — the pool choice never affects behavior.
	c := &flit.Codec{Records: n.tracer.State(s)}
	if s.Err() != nil {
		return
	}

	n.broken.State(s)
	n.schedule.State(s)
	snapshot.Slice(s, &n.faultLog, 8)
	if s.Loading() {
		n.faultDrops = make([]DropBreakdown, len(n.faultLog))
	}
	for i := range n.faultLog {
		n.faultLog[i].State(s)
		n.faultDrops[i].state(s)
	}
	n.drops.state(s)

	snapshot.Slice(s, &n.buckets, 8)
	for i := range n.buckets {
		s.I64(&n.buckets[i])
	}
	if snapshot.Slice(s, &n.goodBuckets, 8); len(n.goodBuckets) > 0 && n.rel == nil {
		s.Corruptf("goodput buckets present without the reliability protocol")
		return
	}
	for i := range n.goodBuckets {
		s.I64(&n.goodBuckets[i])
	}
	s.I64(&n.dupFlits)
	s.I64(&n.dupPackets)
	s.I64(&n.lastProgress)
	s.I64(&n.lastDelivery)

	s.Bool(&n.measuring)
	s.I64(&n.measureStart)
	s.I64(&n.deliveredFlits)
	n.latency.State(s)
	n.srcQueue.State(s)
	n.completion.State(s)

	s.I64(&n.nextAudit)
	s.I64(&n.nextTelemetry)

	rel := n.rel != nil
	if s.Bool(&rel); rel != (n.rel != nil) {
		s.Corruptf("snapshot reliability mode does not match configuration")
		return
	}
	if rel {
		n.rel.State(s)
	}
	tele := n.tele != nil
	if s.Bool(&tele); tele != (n.tele != nil) {
		s.Corruptf("snapshot telemetry mode does not match configuration")
		return
	}
	if tele {
		n.tele.State(s)
	}

	traffic.State(s, n.gens)
	if np := s.Len(len(n.pes), 32); np != len(n.pes) {
		s.Corruptf("snapshot has %d processing elements, config built %d", np, len(n.pes))
		return
	}
	var backlog int64
	for i := range n.pes {
		p := &n.pes[i]
		p.mode.State(s)
		pending := p.backlog[p.head:]
		if snapshot.Slice(s, &pending, 8); s.Loading() {
			p.backlog, p.head = pending, 0
		}
		for j := range pending {
			c.Flit(s, &pending[j])
		}
		backlog += int64(len(pending))
		if s.Loading() && len(pending) > 0 {
			n.backlogged.Set(i)
		}
	}
	if backlog != n.backlogFlits {
		s.Corruptf("backlog ledger %d does not match %d serialized flits", n.backlogFlits, backlog)
		return
	}

	for _, r := range n.routers {
		if r.State(s, c); s.Err() != nil {
			return
		}
	}
	if nc := s.Len(len(n.conns), 2); nc != len(n.conns) {
		s.Corruptf("snapshot has %d links, config built %d", nc, len(n.conns))
		return
	}
	for i := range n.conns {
		if n.conns[i].State(s, c); s.Err() != nil {
			return
		}
	}
}

func (b *DropBreakdown) state(s *snapshot.Stream) {
	s.I64(&b.Unroutable)
	s.I64(&b.InFlight)
	s.I64(&b.DeadDrain)
}
