package telemetry

import (
	"github.com/rocosim/roco/internal/snapshot"
)

// streamI32 streams an int32 by its uint32 bit pattern.
func streamI32(s *snapshot.Stream, v *int32) {
	u := uint32(*v)
	s.U32(&u)
	*v = int32(u)
}

func (n *NodeSample) state(s *snapshot.Stream) {
	s.I64(&n.LinkFlits)
	s.I64(&n.CrossbarTraversals)
	s.I64(&n.BufferWrites)
	s.I64(&n.BufferReads)
	s.I64(&n.VAOps)
	s.I64(&n.VAGrants)
	s.I64(&n.SAOps)
	s.I64(&n.SAGrants)
	s.I64(&n.RouteComputations)
	s.I64(&n.Ejections)
	s.I64(&n.EarlyEjections)
	s.I64(&n.DroppedFlits)
	s.I64(&n.CreditStalls)
	for i := range n.Occupancy {
		streamI32(s, &n.Occupancy[i])
	}
	streamI32(s, &n.OccupancyTotal)
}

// state streams ep in place; loading keeps its preallocated Nodes slice
// and rejects a node count it does not match.
func (ep *Epoch) state(s *snapshot.Stream) {
	s.I64(&ep.Index)
	s.I64(&ep.StartCycle)
	s.I64(&ep.EndCycle)
	s.I64(&ep.Cycles)
	s.I64(&ep.Generated)
	s.I64(&ep.Delivered)
	s.I64(&ep.Dropped)
	s.I64(&ep.Retransmissions)
	s.I64(&ep.Recovered)
	s.I64(&ep.GiveUps)
	s.I64(&ep.LinkFlits)
	s.I64(&ep.CrossbarFlits)
	s.I64(&ep.SAGrants)
	s.I64(&ep.SAConflicts)
	s.I64(&ep.CreditStalls)
	s.I64(&ep.Ejections)
	s.I64(&ep.EarlyEjections)
	for i := range ep.Occupancy {
		s.I64(&ep.Occupancy[i])
	}
	s.I64(&ep.OccupancyTotal)
	ep.Energy.State(s)
	if n := s.Len(len(ep.Nodes), 8); n != len(ep.Nodes) {
		s.Corruptf("epoch has %d node samples, collector is sized for %d", n, len(ep.Nodes))
		return
	}
	for i := range ep.Nodes {
		ep.Nodes[i].state(s)
	}
}

func (t *Totals) state(s *snapshot.Stream) {
	s.I64(&t.Epochs)
	s.I64(&t.Cycles)
	s.I64(&t.Generated)
	s.I64(&t.Delivered)
	s.I64(&t.Dropped)
	s.I64(&t.Retransmissions)
	s.I64(&t.Recovered)
	s.I64(&t.GiveUps)
	s.I64(&t.LinkFlits)
	s.I64(&t.CrossbarFlits)
	s.I64(&t.SAGrants)
	s.I64(&t.SAConflicts)
	s.I64(&t.CreditStalls)
	s.I64(&t.Ejections)
	s.I64(&t.EarlyEjections)
	t.Energy.State(s)
}

// State streams the collector: the retained epochs in logical
// (oldest-first) order, eviction count, the previous-epoch baselines, and
// the cumulative totals. The ring's physical rotation is not preserved —
// only its logical content matters (eviction order and Snapshot output are
// functions of the logical sequence alone) — so loaded epochs land at ring
// positions 0..count-1. A loading collector must be freshly built with the
// same configuration; a shape mismatch is corruption.
func (c *Collector) State(s *snapshot.Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	every, capEp, nodes, count := c.cfg.Every, len(c.ring), c.cfg.Nodes, c.count
	s.I64(&every)
	s.Int(&capEp)
	s.Int(&nodes)
	s.Int(&count)
	switch {
	case every != c.cfg.Every:
		s.Corruptf("telemetry epoch length %d, snapshot had %d", c.cfg.Every, every)
		return
	case capEp != len(c.ring):
		s.Corruptf("telemetry ring capacity %d, snapshot had %d", len(c.ring), capEp)
		return
	case nodes != c.cfg.Nodes:
		s.Corruptf("telemetry node count %d, snapshot had %d", c.cfg.Nodes, nodes)
		return
	case count < 0 || count > len(c.ring):
		s.Corruptf("telemetry ring holds %d epochs over capacity %d", count, len(c.ring))
		return
	}
	if s.Loading() {
		c.start, c.count = 0, count
	}
	for i := 0; i < c.count; i++ {
		if c.ring[(c.start+i)%len(c.ring)].state(s); s.Err() != nil {
			return
		}
	}
	s.I64(&c.evicted)
	s.I64(&c.lastCycle)
	for i := range c.prevAct {
		c.prevAct[i].State(s)
	}
	c.prevCont.State(s)
	s.I64(&c.prevNet.GenFlits)
	s.I64(&c.prevNet.DelFlits)
	s.I64(&c.prevNet.DropFlits)
	s.I64(&c.prevNet.Retransmissions)
	s.I64(&c.prevNet.Recovered)
	s.I64(&c.prevNet.GiveUps)
	c.totals.state(s)
}
