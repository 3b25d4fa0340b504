package flit

import (
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// Codec streams flits for checkpointing. Flits are value-serialized in
// the single container that owns them (a source backlog, a VC queue, a
// link pipe), so the codec needs no identity map for the flits themselves;
// the one cross-reference a flit carries — its trace record — is restored
// through Records, keyed by packet ID.
type Codec struct {
	// Records maps packet ID to the loaded trace record, for relinking
	// Flit.Rec on load. The trace collector must therefore be loaded
	// before any flit.
	Records map[uint64]*trace.Record
	// Pool supplies structs on load (nil allocates fresh). Freshly
	// allocated and recycled flits behave identically — every live field
	// is written below — so the choice never affects results.
	Pool *Pool
}

// Flit streams one live flit; loading draws the flit from Pool into *pf.
func (c *Codec) Flit(s *snapshot.Stream, pf **Flit) {
	if s.Loading() {
		*pf = c.Pool.Get()
	}
	f := *pf
	snapshot.Enum(s, &f.Type)
	s.U64(&f.PacketID)
	s.Int(&f.Seq)
	s.Int(&f.Src)
	s.Int(&f.Dst)
	snapshot.Enum(s, &f.Mode)
	// Routers index per-port arrays with OutPort; Invalid marks a flit
	// not yet routed.
	if snapshot.Enum(s, &f.OutPort); s.Loading() && f.OutPort > topology.Invalid {
		s.Corruptf("flit %d out port %d", f.PacketID, f.OutPort)
	}
	s.Int(&f.VC)
	s.I64(&f.CreatedAt)
	s.I64(&f.InjectedAt)
	s.Int(&f.Hops)
	s.I64(&f.ReadyAt)
	s.Bool(&f.CrossedX)
	s.Bool(&f.CrossedY)
	traced := f.Rec != nil
	if s.Bool(&traced); traced && s.Loading() {
		rec, ok := c.Records[f.PacketID]
		if !ok {
			s.Corruptf("flit %d references a missing trace record", f.PacketID)
		}
		f.Rec = rec
	}
	s.I64(&f.Penalty)
	s.U64(&f.SrcSeq)
	s.U64(&f.Origin)
}
