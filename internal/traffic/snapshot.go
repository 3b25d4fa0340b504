package traffic

import "github.com/rocosim/roco/internal/snapshot"

// Generator kind tags used in snapshots. Values are part of the snapshot
// format — append, never renumber.
const (
	genSilent uint8 = iota
	genBernoulli
	genSelfSimilar
	genMPEG2
)

// State streams the mutable state of every generator. The generator
// structure itself (pattern, rates, destinations) is configuration and is
// rebuilt from Config on resume; only RNG streams and process state are
// runtime state. Each generator is tagged with its kind so a resume into
// a different workload fails loudly instead of misinterpreting bytes: a
// count or kind mismatch is corruption.
func State(s *snapshot.Stream, gens []Generator) {
	if n := s.Len(len(gens), 1); n != len(gens) {
		s.Corruptf("snapshot has %d traffic generators, config built %d", n, len(gens))
		return
	}
	for i, g := range gens {
		want := kindOf(g)
		kind := want
		if s.U8(&kind); kind != want {
			s.Corruptf("generator %d: snapshot kind %d, want %d", i, kind, want)
			return
		}
		switch g := g.(type) {
		case *bernoulliGen:
			g.rng.State(s)
		case *selfSimilar:
			g.rng.State(s)
			s.I64(&g.remaining)
			s.Bool(&g.on)
		case *mpeg2:
			g.rng.State(s)
			s.Int(&g.gopIdx)
			s.I64(&g.framePhase)
			s.F64(&g.backlog)
			if g.gopIdx < 0 || g.gopIdx >= len(g.gop) {
				s.Corruptf("generator %d: gop index %d out of range", i, g.gopIdx)
				return
			}
		}
	}
}

// kindOf returns the snapshot kind tag of g.
func kindOf(g Generator) uint8 {
	switch g.(type) {
	case silentGen:
		return genSilent
	case *bernoulliGen:
		return genBernoulli
	case *selfSimilar:
		return genSelfSimilar
	case *mpeg2:
		return genMPEG2
	}
	panic("traffic: unknown generator kind in snapshot")
}
