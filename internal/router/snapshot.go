package router

import (
	"sort"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// State streams the activity counters.
func (a *Activity) State(s *snapshot.Stream) {
	s.I64(&a.BufferWrites)
	s.I64(&a.BufferReads)
	s.I64(&a.CrossbarTraversals)
	s.I64(&a.LinkFlits)
	for i := range a.LinkFlitsByDir {
		s.I64(&a.LinkFlitsByDir[i])
	}
	s.I64(&a.VAOps)
	s.I64(&a.VAGrants)
	s.I64(&a.SAOps)
	s.I64(&a.SAGrants)
	s.I64(&a.RouteComputations)
	s.I64(&a.Ejections)
	s.I64(&a.EarlyEjections)
	s.I64(&a.DroppedFlits)
	s.I64(&a.CreditStalls)
	s.I64(&a.Cycles)
}

// State streams the contention tallies.
func (c *Contention) State(s *snapshot.Stream) {
	s.I64(&c.RowRequests)
	s.I64(&c.RowFailures)
	s.I64(&c.ColRequests)
	s.I64(&c.ColFailures)
}

// streamFlag streams one bit of a packed flag byte as a bool.
func streamFlag(s *snapshot.Stream, flags *uint8, bit uint8) {
	on := *flags&bit != 0
	if s.Bool(&on); on {
		*flags |= bit
	} else {
		*flags &^= bit
	}
}

// State streams one channel: its fault state, admission bookkeeping,
// per-packet routing states, and buffered flits (via the codec). Index,
// Class and physical Depth are structural — streamed for validation only:
// loading into a channel of another shape is corruption.
func (v *VC) State(s *snapshot.Stream, c *flit.Codec) {
	idx, class, depth := v.Index, v.Class, v.Depth
	s.Int(&idx)
	snapshot.Enum(s, &class)
	s.Int(&depth)
	switch {
	case idx != v.Index:
		s.Corruptf("vc index %d, snapshot had %d", v.Index, idx)
		return
	case class != v.Class:
		s.Corruptf("vc %d class %v, snapshot had %v", v.Index, v.Class, class)
		return
	case depth != v.Depth:
		s.Corruptf("vc %d depth %d, snapshot had %d", v.Index, v.Depth, depth)
		return
	}
	s.Bool(&v.Faulty)
	s.I64(&v.FaultPenalty)
	s.Bool(&v.condemned)
	s.Int(&v.claims)
	// The feeder indexes AllocState's per-feeder masks when the load ends.
	if snapshot.Enum(s, &v.claimFeeder); v.claimFeeder > topology.Invalid {
		s.Corruptf("vc %d claim feeder %d", v.Index, v.claimFeeder)
		return
	}
	if s.Loading() {
		// A lazily built channel allocates its full-capacity backing here,
		// so the resumed run keeps the allocate-once steady state.
		v.ensureBuffers()
	}
	snapshot.Slice(s, &v.states, 8)
	if ns := len(v.states); ns > MaxPacketsPerChannel || v.claims < ns || v.claims > MaxPacketsPerChannel {
		s.Corruptf("vc %d has %d states under %d claims", v.Index, ns, v.claims)
		return
	}
	for i := range v.states {
		// The in-memory pktState is packed (flag byte, byte directions);
		// the stream stays canonical, one field at a time, so snapshots
		// from before the packing round-trip unchanged.
		st := &v.states[i]
		snapshot.Enum(s, &st.outPort)
		snapshot.Enum(s, &st.nextOut)
		snapshot.Narrow(s, &st.outVC)
		streamFlag(s, &st.flags, psEject)
		streamFlag(s, &st.flags, psDoomed)
		snapshot.Enum(s, &st.feeder)
		s.U64(&st.packetID)
		streamFlag(s, &st.flags, psStreamed)
		streamFlag(s, &st.flags, psCancelled)
	}
	if snapshot.Slice(s, &v.queue, 16); len(v.queue) > v.Depth {
		s.Corruptf("vc %d holds %d flits over depth %d", v.Index, len(v.queue), v.Depth)
		return
	}
	for i := range v.queue {
		c.Flit(s, &v.queue[i])
	}
	if s.Loading() {
		// The allocation bitmaps, dormancy included, are derived state,
		// never serialized; rebuild the channel's bits from what just
		// loaded (the masks have no cross-channel terms).
		v.syncAlloc()
		v.syncClaim()
	}
}

// State streams the output book's credit and grant-order state. Depths
// are runtime state too: fault handshakes rewrite them live. The stream
// stays canonical — plain ints, one grantee at a time — whatever the
// in-memory packing; loading a size mismatch, or a value the packed
// layout cannot hold, is corruption.
func (b *OutVCBook) State(s *snapshot.Stream) {
	if n := s.Len(int(b.n), 16); n != int(b.n) {
		s.Corruptf("output book tracks %d VCs, snapshot had %d", b.n, n)
		return
	}
	for vc := 0; vc < int(b.n); vc++ {
		snapshot.Narrow(s, &b.depths[vc])
		snapshot.Narrow(s, &b.inflight[vc])
		if depth, inflight := int(b.depths[vc]), int(b.inflight[vc]); depth < 0 || depth > maxBookDepth || inflight < 0 || inflight > maxBookDepth {
			s.Corruptf("output book vc %d: depth %d, in flight %d outside [0,%d]", vc, depth, inflight, maxBookDepth)
			return
		}
		q := b.order[vc]
		k := s.Len(q.count(), 8)
		if k > grantCap {
			s.Corruptf("output book vc %d queues %d grants, at most %d fit", vc, k, grantCap)
			return
		}
		var order grantFIFO
		for i := 0; i < k; i++ {
			g := q.at(i)
			if s.Int(&g); g < 0 || g > maxGrantee {
				s.Corruptf("output book vc %d: grantee %d outside [0,%d]", vc, g, maxGrantee)
				return
			}
			order = order.push(g)
		}
		b.order[vc] = order
	}
	if s.Loading() {
		b.resyncAlive()
	}
}

// State streams the link latch. Snapshots are taken at cycle boundaries,
// after Advance and before any Tick: the staged slot is provably empty,
// so only the readable flit, the in-transit stages of a multi-cycle D2D
// pipe, and the serializer timer are written. The pipe's D2D parameters
// are structural (rebuilt from the config at wiring time); loading
// transit state into a plain latch is corruption.
func (p *FlitPipe) State(s *snapshot.Stream, c *flit.Codec) {
	if !s.Loading() && p.next != nil {
		panic("router: flit pipe snapshot taken mid-cycle")
	}
	has := p.cur != nil
	if s.Bool(&has); has {
		c.Flit(s, &p.cur)
	}
	if snapshot.Slice(s, &p.inflight, 16); len(p.inflight) > 0 && !p.long {
		s.Corruptf("flit pipe holds %d in-transit flits but is not a d2d pipe", len(p.inflight))
		return
	}
	for i := range p.inflight {
		c.Flit(s, &p.inflight[i].f)
		snapshot.Narrow(s, &p.inflight[i].rem)
	}
	if snapshot.Narrow(s, &p.gapLeft); p.gapLeft > 0 && !p.long {
		s.Corruptf("flit pipe has gap timer %d but is not a d2d pipe", p.gapLeft)
	}
}

// State streams the credit latch: this cycle's readable credits and any
// credits in transit through a multi-cycle D2D pipe. Like the flit pipe,
// the staged side must be empty at a cycle boundary.
func (p *CreditPipe) State(s *snapshot.Stream) {
	if !s.Loading() && len(p.next) != 0 {
		panic("router: credit pipe snapshot taken mid-cycle")
	}
	s.Bool(&p.readable)
	snapshot.Slice(s, &p.cur, 8)
	for i := range p.cur {
		s.Int(&p.cur[i])
	}
	if snapshot.Slice(s, &p.inflight, 8); len(p.inflight) > 0 && !p.long {
		s.Corruptf("credit pipe holds %d in-transit credits but is not a d2d pipe", len(p.inflight))
		return
	}
	for i := range p.inflight {
		snapshot.Narrow(s, &p.inflight[i].vc)
		snapshot.Narrow(s, &p.inflight[i].rem)
	}
}

// State streams both half-channels of the link.
func (c *Conn) State(s *snapshot.Stream, fc *flit.Codec) {
	c.Flit.State(s, fc)
	c.Credit.State(s)
}

// State streams the broken-packet registry, IDs in ascending order so
// the byte stream is deterministic.
func (b *BrokenSet) State(s *snapshot.Stream) {
	s.Bool(&b.faulty)
	var ids []uint64
	if !s.Loading() {
		ids = make([]uint64, 0, len(b.ids))
		for id := range b.ids {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	snapshot.Slice(s, &ids, 16)
	for i := range ids {
		s.U64(&ids[i])
		cycle := b.ids[ids[i]]
		if s.I64(&cycle); s.Loading() {
			b.ids[ids[i]] = cycle
		}
	}
}

// StreamChannels streams the state every router snapshot opens with: the
// channels in grantee order, then which output links have a credit book
// and the books' contents. The policy's own state follows it, and
// StreamCounters closes the snapshot. Loading a structural mismatch is
// corruption.
func (c *Chassis) StreamChannels(s *snapshot.Stream, codec *flit.Codec) {
	for _, vc := range c.VCs {
		if vc.State(s, codec); s.Err() != nil {
			return
		}
	}
	for dir := 0; dir < TransferLeg; dir++ {
		present := c.Books[dir] != nil
		if s.Bool(&present); present != (c.Books[dir] != nil) {
			s.Corruptf("router %d: output book %d presence mismatch", c.Node, dir)
			return
		}
		if present {
			c.Books[dir].State(s)
		}
	}
}

// StreamVAArb streams book b's VA arbiters, the ones the policy sized.
func (c *Chassis) StreamVAArb(s *snapshot.Stream, b int) {
	for i := range c.VAArb[b] {
		if a := &c.VAArb[b][i]; a.Size() > 0 {
			a.State(s)
		}
	}
}

// StreamInjection streams the injection channel, numbered in the PE
// port's own namespace (so a per-port router writes a port-local index).
func (c *Chassis) StreamInjection(s *snapshot.Stream) {
	v := c.InjVC
	if v >= 0 {
		v -= int(c.sideBase[topology.Local])
	}
	if s.Int(&v); v < loopbackVC || v >= c.inputVCs {
		s.Corruptf("router %d: injection vc %d out of range", c.Node, v)
		return
	}
	if v >= 0 {
		v += int(c.sideBase[topology.Local])
	}
	c.InjVC = v
}

// StreamCounters streams the state every router snapshot closes with: the
// activity and contention counters, the orphan-reap timers and the
// severed-port mask.
func (c *Chassis) StreamCounters(s *snapshot.Stream) {
	c.Act.State(s)
	c.Cont.State(s)
	if n := s.Len(len(c.emptySince), 8); n != len(c.emptySince) {
		s.Corruptf("router %d tracks %d VCs, snapshot had %d", c.Node, len(c.emptySince), n)
		return
	}
	for i := range c.emptySince {
		s.I64(&c.emptySince[i])
	}
	s.U8(&c.severed)
}
