package router

import (
	"sort"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// SaveState serializes the activity counters.
func (a *Activity) SaveState(e *snapshot.Encoder) {
	e.I64(a.BufferWrites)
	e.I64(a.BufferReads)
	e.I64(a.CrossbarTraversals)
	e.I64(a.LinkFlits)
	for _, v := range a.LinkFlitsByDir {
		e.I64(v)
	}
	e.I64(a.VAOps)
	e.I64(a.VAGrants)
	e.I64(a.SAOps)
	e.I64(a.SAGrants)
	e.I64(a.RouteComputations)
	e.I64(a.Ejections)
	e.I64(a.EarlyEjections)
	e.I64(a.DroppedFlits)
	e.I64(a.CreditStalls)
	e.I64(a.Cycles)
}

// LoadState restores counters written by SaveState.
func (a *Activity) LoadState(d *snapshot.Decoder) {
	a.BufferWrites = d.I64()
	a.BufferReads = d.I64()
	a.CrossbarTraversals = d.I64()
	a.LinkFlits = d.I64()
	for i := range a.LinkFlitsByDir {
		a.LinkFlitsByDir[i] = d.I64()
	}
	a.VAOps = d.I64()
	a.VAGrants = d.I64()
	a.SAOps = d.I64()
	a.SAGrants = d.I64()
	a.RouteComputations = d.I64()
	a.Ejections = d.I64()
	a.EarlyEjections = d.I64()
	a.DroppedFlits = d.I64()
	a.CreditStalls = d.I64()
	a.Cycles = d.I64()
}

// SaveState serializes the contention tallies.
func (c *Contention) SaveState(e *snapshot.Encoder) {
	e.I64(c.RowRequests)
	e.I64(c.RowFailures)
	e.I64(c.ColRequests)
	e.I64(c.ColFailures)
}

// LoadState restores tallies written by SaveState.
func (c *Contention) LoadState(d *snapshot.Decoder) {
	c.RowRequests = d.I64()
	c.RowFailures = d.I64()
	c.ColRequests = d.I64()
	c.ColFailures = d.I64()
}

// SaveState serializes one channel: its fault state, admission bookkeeping,
// per-packet routing states, and buffered flits (via the codec). Index,
// Class and physical Depth are structural — written for validation only.
func (v *VC) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	e.Int(v.Index)
	e.U8(uint8(v.Class))
	e.Int(v.Depth)
	e.Bool(v.Faulty)
	e.I64(v.FaultPenalty)
	e.Bool(v.condemned)
	e.Int(v.claims)
	e.U8(uint8(v.claimFeeder))
	e.Int(len(v.states))
	for _, s := range v.states {
		// The in-memory pktState is packed (flag byte, byte directions);
		// the stream stays canonical, one field at a time, so snapshots
		// from before the packing round-trip unchanged.
		e.U8(uint8(s.outPort))
		e.U8(uint8(s.nextOut))
		e.Int(int(s.outVC))
		e.Bool(s.flags&psEject != 0)
		e.Bool(s.flags&psDoomed != 0)
		e.U8(uint8(s.feeder))
		e.U64(s.packetID)
		e.Bool(s.flags&psStreamed != 0)
		e.Bool(s.flags&psCancelled != 0)
	}
	e.Int(len(v.queue))
	for _, f := range v.queue {
		c.Encode(e, f)
	}
}

// LoadState restores a channel written by SaveState into a freshly built
// channel of the same shape; a structural mismatch poisons the decoder.
func (v *VC) LoadState(d *snapshot.Decoder, c *flit.Codec) {
	if idx := d.Int(); d.Err() == nil && idx != v.Index {
		d.Corruptf("vc index %d, snapshot had %d", v.Index, idx)
		return
	}
	if cl := routing.Turn(d.U8()); d.Err() == nil && cl != v.Class {
		d.Corruptf("vc %d class %v, snapshot had %v", v.Index, v.Class, cl)
		return
	}
	if depth := d.Int(); d.Err() == nil && depth != v.Depth {
		d.Corruptf("vc %d depth %d, snapshot had %d", v.Index, v.Depth, depth)
		return
	}
	v.Faulty = d.Bool()
	v.FaultPenalty = d.I64()
	v.condemned = d.Bool()
	v.claims = d.Int()
	v.claimFeeder = topology.Direction(d.U8())
	ns := d.SliceLen(8)
	if d.Err() == nil && (ns > MaxPacketsPerChannel || v.claims < ns || v.claims > MaxPacketsPerChannel) {
		d.Corruptf("vc %d has %d states under %d claims", v.Index, ns, v.claims)
		return
	}
	// A lazily built channel allocates its full-capacity backing here, so
	// the resumed run keeps the allocate-once steady state.
	v.ensureBuffers()
	v.states = v.states[:0]
	for i := 0; i < ns; i++ {
		s := pktState{
			outPort: topology.Direction(d.U8()),
			nextOut: topology.Direction(d.U8()),
			outVC:   int32(d.Int()),
		}
		if d.Bool() {
			s.flags |= psEject
		}
		if d.Bool() {
			s.flags |= psDoomed
		}
		s.feeder = topology.Direction(d.U8())
		s.packetID = d.U64()
		if d.Bool() {
			s.flags |= psStreamed
		}
		if d.Bool() {
			s.flags |= psCancelled
		}
		v.states = append(v.states, s)
	}
	nq := d.SliceLen(16)
	if d.Err() == nil && nq > v.Depth {
		d.Corruptf("vc %d holds %d flits over depth %d", v.Index, nq, v.Depth)
		return
	}
	v.queue = v.queue[:0]
	for i := 0; i < nq; i++ {
		if d.Err() != nil {
			return
		}
		v.queue = append(v.queue, c.Decode(d))
	}
	// The allocation bitmaps, dormancy included, are derived state, never
	// serialized; rebuild the channel's bits from what just loaded (the
	// masks have no cross-channel terms).
	v.syncAlloc()
	v.syncClaim()
}

// SaveState serializes the output book's credit and grant-order state.
// Depths are runtime state too: fault handshakes rewrite them live. The
// stream stays canonical — plain ints, one grantee at a time — whatever
// the in-memory packing.
func (b *OutVCBook) SaveState(e *snapshot.Encoder) {
	e.Int(int(b.n))
	for vc := 0; vc < int(b.n); vc++ {
		e.Int(int(b.depths[vc]))
		e.Int(int(b.inflight[vc]))
		q := b.order[vc]
		e.Int(q.count())
		for i := 0; i < q.count(); i++ {
			e.Int(q.at(i))
		}
	}
}

// LoadState restores a book written by SaveState; a size mismatch, or a
// value the packed layout cannot hold, poisons the decoder.
func (b *OutVCBook) LoadState(d *snapshot.Decoder) {
	if n := d.SliceLen(16); d.Err() == nil && n != int(b.n) {
		d.Corruptf("output book tracks %d VCs, snapshot had %d", b.n, n)
		return
	}
	for vc := 0; vc < int(b.n); vc++ {
		depth, inflight := d.Int(), d.Int()
		k := d.SliceLen(8)
		if d.Err() != nil {
			return
		}
		if depth < 0 || depth > maxBookDepth || inflight < 0 || inflight > maxBookDepth {
			d.Corruptf("output book vc %d: depth %d, in flight %d outside [0,%d]", vc, depth, inflight, maxBookDepth)
			return
		}
		if k > grantCap {
			d.Corruptf("output book vc %d queues %d grants, at most %d fit", vc, k, grantCap)
			return
		}
		b.depths[vc], b.inflight[vc] = int8(depth), int8(inflight)
		var q grantFIFO
		for j := 0; j < k; j++ {
			g := d.Int()
			if d.Err() != nil {
				return
			}
			if g < 0 || g > maxGrantee {
				d.Corruptf("output book vc %d: grantee %d outside [0,%d]", vc, g, maxGrantee)
				return
			}
			q = q.push(g)
		}
		b.order[vc] = q
	}
	b.resyncAlive()
}

// SaveState serializes the link latch. Snapshots are taken at cycle
// boundaries, after Advance and before any Tick: the staged slot is
// provably empty, so only the readable flit, the in-transit stages of a
// multi-cycle D2D pipe, and the serializer timer are written.
func (p *FlitPipe) SaveState(e *snapshot.Encoder, c *flit.Codec) {
	if p.next != nil {
		panic("router: flit pipe snapshot taken mid-cycle")
	}
	if p.cur != nil {
		e.Bool(true)
		c.Encode(e, p.cur)
	} else {
		e.Bool(false)
	}
	e.Int(len(p.inflight))
	for _, df := range p.inflight {
		c.Encode(e, df.f)
		e.Int(int(df.rem))
	}
	e.Int(int(p.gapLeft))
}

// LoadState restores a latch written by SaveState. The pipe's D2D
// parameters are structural (rebuilt from the config at wiring time); a
// stream carrying transit state into a plain latch poisons the decoder.
func (p *FlitPipe) LoadState(d *snapshot.Decoder, c *flit.Codec) {
	p.next = nil
	p.cur = nil
	if d.Bool() && d.Err() == nil {
		p.cur = c.Decode(d)
	}
	n := d.SliceLen(16)
	if d.Err() == nil && n > 0 && !p.long {
		d.Corruptf("flit pipe holds %d in-transit flits but is not a d2d pipe", n)
		return
	}
	p.inflight = p.inflight[:0]
	for i := 0; i < n; i++ {
		if d.Err() != nil {
			return
		}
		p.inflight = append(p.inflight, delayedFlit{f: c.Decode(d), rem: int32(d.Int())})
	}
	p.gapLeft = int32(d.Int())
	if d.Err() == nil && p.gapLeft > 0 && !p.long {
		d.Corruptf("flit pipe has gap timer %d but is not a d2d pipe", p.gapLeft)
	}
}

// SaveState serializes the credit latch: this cycle's readable credits and
// any credits in transit through a multi-cycle D2D pipe. Like the flit
// pipe, the staged side must be empty at a cycle boundary.
func (p *CreditPipe) SaveState(e *snapshot.Encoder) {
	if len(p.next) != 0 {
		panic("router: credit pipe snapshot taken mid-cycle")
	}
	e.Bool(p.readable)
	e.Int(len(p.cur))
	for _, vc := range p.cur {
		e.Int(vc)
	}
	e.Int(len(p.inflight))
	for _, dc := range p.inflight {
		e.Int(int(dc.vc))
		e.Int(int(dc.rem))
	}
}

// LoadState restores a latch written by SaveState.
func (p *CreditPipe) LoadState(d *snapshot.Decoder) {
	p.next = p.next[:0]
	p.readable = d.Bool()
	n := d.SliceLen(8)
	p.cur = p.cur[:0]
	for i := 0; i < n; i++ {
		p.cur = append(p.cur, d.Int())
	}
	k := d.SliceLen(8)
	if d.Err() == nil && k > 0 && !p.long {
		d.Corruptf("credit pipe holds %d in-transit credits but is not a d2d pipe", k)
		return
	}
	p.inflight = p.inflight[:0]
	for i := 0; i < k; i++ {
		p.inflight = append(p.inflight, delayedCredit{vc: int32(d.Int()), rem: int32(d.Int())})
	}
}

// SaveState serializes both half-channels of the link.
func (c *Conn) SaveState(e *snapshot.Encoder, fc *flit.Codec) {
	c.Flit.SaveState(e, fc)
	c.Credit.SaveState(e)
}

// LoadState restores a link written by SaveState.
func (c *Conn) LoadState(d *snapshot.Decoder, fc *flit.Codec) {
	c.Flit.LoadState(d, fc)
	c.Credit.LoadState(d)
}

// SaveState serializes the broken-packet registry, IDs in ascending order
// so the byte stream is deterministic.
func (b *BrokenSet) SaveState(e *snapshot.Encoder) {
	e.Bool(b.faulty)
	ids := make([]uint64, 0, len(b.ids))
	for id := range b.ids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		e.U64(id)
		e.I64(b.ids[id])
	}
}

// LoadState restores a registry written by SaveState.
func (b *BrokenSet) LoadState(d *snapshot.Decoder) {
	b.faulty = d.Bool()
	n := d.SliceLen(16)
	for i := 0; i < n; i++ {
		id := d.U64()
		cycle := d.I64()
		if d.Err() != nil {
			return
		}
		b.ids[id] = cycle
	}
}

// SaveChannels writes the state every router snapshot opens with: the
// channels in grantee order, then which output links have a credit book
// and the books' contents. The policy's own state follows it, and
// SaveCounters closes the snapshot.
func (c *Chassis) SaveChannels(e *snapshot.Encoder, codec *flit.Codec) {
	for _, vc := range c.VCs {
		vc.SaveState(e, codec)
	}
	for d := 0; d < TransferLeg; d++ {
		if c.Books[d] == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		c.Books[d].SaveState(e)
	}
}

// LoadChannels restores state written by SaveChannels; a structural
// mismatch poisons the decoder.
func (c *Chassis) LoadChannels(d *snapshot.Decoder, codec *flit.Codec) {
	for _, vc := range c.VCs {
		vc.LoadState(d, codec)
		if d.Err() != nil {
			return
		}
	}
	for dir := 0; dir < TransferLeg; dir++ {
		present := d.Bool()
		if d.Err() != nil {
			return
		}
		if present != (c.Books[dir] != nil) {
			d.Corruptf("router %d: output book %d presence mismatch", c.Node, dir)
			return
		}
		if present {
			c.Books[dir].LoadState(d)
		}
	}
}

// SaveVAArb writes book b's VA arbiters, the ones the policy sized.
func (c *Chassis) SaveVAArb(e *snapshot.Encoder, b int) {
	for i := range c.VAArb[b] {
		if a := &c.VAArb[b][i]; a.Size() > 0 {
			a.SaveState(e)
		}
	}
}

// LoadVAArb restores arbiters written by SaveVAArb.
func (c *Chassis) LoadVAArb(d *snapshot.Decoder, b int) {
	for i := range c.VAArb[b] {
		if a := &c.VAArb[b][i]; a.Size() > 0 {
			a.LoadState(d)
		}
	}
}

// SaveInjection writes the injection channel, numbered in the PE port's
// own namespace (so a per-port router writes a port-local index).
func (c *Chassis) SaveInjection(e *snapshot.Encoder) {
	v := c.InjVC
	if v >= 0 {
		v -= int(c.sideBase[topology.Local])
	}
	e.Int(v)
}

// LoadInjection restores the injection channel written by SaveInjection.
func (c *Chassis) LoadInjection(d *snapshot.Decoder) {
	v := d.Int()
	if d.Err() == nil && (v < loopbackVC || v >= c.inputVCs) {
		d.Corruptf("router %d: injection vc %d out of range", c.Node, v)
		return
	}
	if v >= 0 {
		v += int(c.sideBase[topology.Local])
	}
	c.InjVC = v
}

// SaveCounters writes the state every router snapshot closes with: the
// activity and contention counters, the orphan-reap timers and the
// severed-port mask.
func (c *Chassis) SaveCounters(e *snapshot.Encoder) {
	c.Act.SaveState(e)
	c.Cont.SaveState(e)
	e.Int(len(c.emptySince))
	for _, s := range c.emptySince {
		e.I64(s)
	}
	e.U8(c.severed)
}

// LoadCounters restores state written by SaveCounters.
func (c *Chassis) LoadCounters(d *snapshot.Decoder) {
	c.Act.LoadState(d)
	c.Cont.LoadState(d)
	if n := d.SliceLen(8); d.Err() == nil && n != len(c.emptySince) {
		d.Corruptf("router %d tracks %d VCs, snapshot had %d", c.Node, len(c.emptySince), n)
		return
	}
	for i := range c.emptySince {
		c.emptySince[i] = d.I64()
	}
	c.severed = d.U8()
}
