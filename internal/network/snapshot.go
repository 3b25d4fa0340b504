// Checkpoint/resume for a live network. SaveState serializes every piece
// of mutable simulation state — counters, fault bookkeeping, protocol
// tracker, telemetry ring, PE backlogs and RNG streams, router internals,
// and link pipes — at a cycle boundary; LoadState restores it into a
// network freshly built from the same Config. The contract is exactness:
// a resumed network continues bit-identically to one that never stopped,
// under every kernel (reference, gated, sharded) and both Reliable modes.
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
	"github.com/rocosim/roco/internal/fault"
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

	e.I64(n.cycle)
	e.U64(n.nextPacketID)
	e.I64(n.generated)
	e.I64(n.deliveredAll)
	e.I64(n.genFlits)
	e.I64(n.delFlitsAll)
	e.I64(n.dropFlitsAll)
	e.I64(n.backlogFlits)

	// The trace collector goes first: flits reference its records by
	// pointer, and the codec relinks them by packet ID on decode.
	n.tracer.SaveState(e)
	c := &flit.Codec{}

	n.broken.SaveState(e)
	n.schedule.SaveState(e)
	e.Int(len(n.faultLog))
	for i, ev := range n.faultLog {
		ev.SaveState(e)
		saveDrops(e, n.faultDrops[i])
	}
	saveDrops(e, n.drops)

	e.Int(len(n.buckets))
	for _, b := range n.buckets {
		e.I64(b)
	}
	e.Int(len(n.goodBuckets))
	for _, b := range n.goodBuckets {
		e.I64(b)
	}
	e.I64(n.dupFlits)
	e.I64(n.dupPackets)
	e.I64(n.lastProgress)
	e.I64(n.lastDelivery)

	e.Bool(n.measuring)
	e.I64(n.measureStart)
	e.I64(n.deliveredFlits)
	n.latency.SaveState(e)
	n.srcQueue.SaveState(e)
	n.completion.SaveState(e)

	e.I64(n.nextAudit)
	e.I64(n.nextTelemetry)

	e.Bool(n.rel != nil)
	if n.rel != nil {
		n.rel.SaveState(e)
	}
	e.Bool(n.tele != nil)
	if n.tele != nil {
		n.tele.SaveState(e)
	}

	traffic.SaveState(e, n.gens)
	e.Int(len(n.pes))
	for _, p := range n.pes {
		p.mode.SaveState(e)
		pending := p.backlog[p.head:]
		e.Int(len(pending))
		for _, f := range pending {
			c.Encode(e, f)
		}
	}

	for _, r := range n.routers {
		r.SaveState(e, c)
	}
	e.Int(len(n.conns))
	for _, conn := range n.conns {
		conn.SaveState(e, c)
	}
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

	n.cycle = d.I64()
	n.nextPacketID = d.U64()
	n.generated = d.I64()
	n.deliveredAll = d.I64()
	n.genFlits = d.I64()
	n.delFlitsAll = d.I64()
	n.dropFlitsAll = d.I64()
	n.backlogFlits = d.I64()
	if d.Err() != nil {
		return
	}
	if n.cycle < 0 || n.generated < 0 || n.genFlits < 0 {
		d.Corruptf("negative network counters")
		return
	}

	byID := n.tracer.LoadState(d)
	if d.Err() != nil {
		return
	}
	// Decoded flits draw from the pool of their owning container's shard;
	// pools are empty on a fresh network, so Get falls through to plain
	// allocation either way — the pool choice never affects behavior.
	c := &flit.Codec{Records: byID}

	n.broken.LoadState(d)
	n.schedule.LoadState(d)
	nf := d.SliceLen(8)
	for i := 0; i < nf; i++ {
		n.faultLog = append(n.faultLog, fault.LoadEvent(d))
		n.faultDrops = append(n.faultDrops, loadDrops(d))
		if d.Err() != nil {
			return
		}
	}
	n.drops = loadDrops(d)

	nb := d.SliceLen(8)
	for i := 0; i < nb; i++ {
		n.buckets = append(n.buckets, d.I64())
	}
	ng := d.SliceLen(8)
	if ng > 0 && n.rel == nil {
		d.Corruptf("goodput buckets present without the reliability protocol")
		return
	}
	for i := 0; i < ng; i++ {
		n.goodBuckets = append(n.goodBuckets, d.I64())
	}
	n.dupFlits = d.I64()
	n.dupPackets = d.I64()
	n.lastProgress = d.I64()
	n.lastDelivery = d.I64()

	n.measuring = d.Bool()
	n.measureStart = d.I64()
	n.deliveredFlits = d.I64()
	n.latency.LoadState(d)
	n.srcQueue.LoadState(d)
	n.completion.LoadState(d)

	n.nextAudit = d.I64()
	n.nextTelemetry = d.I64()

	if rel := d.Bool(); d.Err() == nil && rel != (n.rel != nil) {
		d.Corruptf("snapshot reliability mode does not match configuration")
		return
	}
	if n.rel != nil {
		n.rel.LoadState(d)
	}
	if tele := d.Bool(); d.Err() == nil && tele != (n.tele != nil) {
		d.Corruptf("snapshot telemetry mode does not match configuration")
		return
	}
	if n.tele != nil {
		n.tele.LoadState(d)
	}

	traffic.LoadState(d, n.gens)
	np := d.SliceLen(32)
	if d.Err() == nil && np != len(n.pes) {
		d.Corruptf("snapshot has %d processing elements, config built %d", np, len(n.pes))
		return
	}
	var backlog int64
	for _, p := range n.pes {
		p.mode.LoadState(d)
		k := d.SliceLen(8)
		if d.Err() != nil {
			return
		}
		p.backlog = p.backlog[:0]
		p.head = 0
		for j := 0; j < k; j++ {
			p.backlog = append(p.backlog, c.Decode(d))
		}
		backlog += int64(k)
	}
	if d.Err() == nil && backlog != n.backlogFlits {
		d.Corruptf("backlog ledger %d does not match %d serialized flits", n.backlogFlits, backlog)
		return
	}

	for _, r := range n.routers {
		r.LoadState(d, c)
		if d.Err() != nil {
			return
		}
	}
	nc := d.SliceLen(2)
	if d.Err() == nil && nc != len(n.conns) {
		d.Corruptf("snapshot has %d links, config built %d", nc, len(n.conns))
		return
	}
	for _, conn := range n.conns {
		conn.LoadState(d, c)
		if d.Err() != nil {
			return
		}
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
	for _, conn := range n.conns {
		inPipes += int64(conn.Flit.Occupancy())
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
	// Then rebuild the derived hot-state mirror, which the routers'
	// LoadState bypassed.
	if n.gatedKernel() {
		n.activeBits.SetFirst(len(n.routers))
		n.nextActiveBits.ClearAll()
		for id := range n.lastRun {
			n.lastRun[id] = n.cycle - 1
		}
		for i := range n.connMark {
			n.connMark[i] = -1
		}
		n.hot.Resync()
	}
}

// Restore builds a network from cfg and loads a snapshot into it,
// returning the decoder's final verdict (including trailing-byte
// detection). cfg must describe the run that produced the snapshot;
// kernel-selection fields (ReferenceKernel, Shards, Workers)
// are free to differ — the snapshot is kernel-canonical.
func Restore(cfg Config, d *snapshot.Decoder) (*Network, error) {
	n := New(cfg)
	n.LoadState(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return n, nil
}

func saveDrops(e *snapshot.Encoder, b DropBreakdown) {
	e.I64(b.Unroutable)
	e.I64(b.InFlight)
	e.I64(b.DeadDrain)
}

func loadDrops(d *snapshot.Decoder) DropBreakdown {
	return DropBreakdown{
		Unroutable: d.I64(),
		InFlight:   d.I64(),
		DeadDrain:  d.I64(),
	}
}
