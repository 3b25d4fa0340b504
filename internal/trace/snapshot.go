package trace

import "github.com/rocosim/roco/internal/snapshot"

// State streams every record in insertion order. Loading requires an
// empty collector and returns the loaded records keyed by packet ID, for
// relinking the Rec pointers of in-flight flits (stream the collector
// before any flit); saving returns nil.
func (c *Collector) State(s *snapshot.Stream) map[uint64]*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Loading() && len(c.records) != 0 {
		s.Corruptf("loading trace state into a non-empty collector")
		return nil
	}
	snapshot.Slice(s, &c.records, 8)
	var byID map[uint64]*Record
	if s.Loading() {
		byID = make(map[uint64]*Record, len(c.records))
	}
	for i, r := range c.records {
		if s.Loading() {
			r = &Record{}
			c.records[i] = r
		}
		s.U64(&r.PacketID)
		s.Int(&r.Src)
		s.Int(&r.Dst)
		s.I64(&r.CreatedAt)
		if k := s.Len(len(r.Visits), 8); s.Loading() {
			// Mirror NewRecord's preallocation so resumed records grow the
			// same way live ones do.
			r.Visits = make([]Visit, k, max(16, k))
		}
		for j := range r.Visits {
			v := &r.Visits[j]
			s.Int(&v.Node)
			s.I64(&v.Cycle)
			snapshot.Enum(s, &v.Kind)
			snapshot.Enum(s, &v.Reason)
		}
		if s.Err() != nil {
			return nil
		}
		if byID != nil {
			byID[r.PacketID] = r
		}
	}
	return byID
}
