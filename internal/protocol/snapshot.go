package protocol

import (
	"container/heap"
	"sort"

	"github.com/rocosim/roco/internal/snapshot"
)

// State streams the tracker: policy (for validation), per-source sequence
// counters and duplicate windows, the unresolved entries, and the
// lifetime counters. Window overflow sets and entries are written sorted
// (by seq, and by (src, seq)) so the byte stream is deterministic
// regardless of map iteration order. The timer heap is not serialized: it
// holds exactly the unresolved entries (plus lazily-deleted resolved
// ones, which are observationally inert), and its comparison is a total
// order, so rebuilding it from the entries yields an identical expiry
// sequence. A loading receiver must be fresh from NewTracker with the
// same node count and (normalized) policy; a mismatch is corruption.
func (t *Tracker) State(s *snapshot.Stream) {
	if s.Loading() && (len(t.entries) != 0 || len(t.giveUps) != 0) {
		s.Corruptf("loading protocol state into a used tracker")
		return
	}
	to, mx, mr := t.params.Timeout, t.params.MaxTimeout, t.params.MaxRetries
	s.I64(&to)
	s.I64(&mx)
	s.Int(&mr)
	if to != t.params.Timeout || mx != t.params.MaxTimeout || mr != t.params.MaxRetries {
		s.Corruptf("protocol params (%d,%d,%d) do not match snapshot (%d,%d,%d)",
			t.params.Timeout, t.params.MaxTimeout, t.params.MaxRetries, to, mx, mr)
		return
	}

	if nodes := s.Len(len(t.wins), 16); nodes != len(t.wins) {
		s.Corruptf("protocol tracker has %d nodes, snapshot had %d", len(t.wins), nodes)
		return
	}
	for i := range t.wins {
		w := &t.wins[i]
		s.U64(&t.nextSeq[i])
		s.U64(&w.contig)
		var over []uint64
		if !s.Loading() {
			over = make([]uint64, 0, len(w.over))
			for seq := range w.over {
				over = append(over, seq)
			}
			sort.Slice(over, func(a, b int) bool { return over[a] < over[b] })
		}
		snapshot.Slice(s, &over, 8)
		for j := range over {
			s.U64(&over[j])
		}
		if s.Loading() && len(over) > 0 {
			w.over = make(map[uint64]struct{}, len(over))
			for _, seq := range over {
				w.over[seq] = struct{}{}
			}
		}
	}

	var entries []*Entry
	if !s.Loading() {
		entries = make([]*Entry, 0, len(t.entries))
		for _, en := range t.entries {
			entries = append(entries, en)
		}
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].Src != entries[b].Src {
				return entries[a].Src < entries[b].Src
			}
			return entries[a].Seq < entries[b].Seq
		})
	}
	snapshot.Slice(s, &entries, 8*9)
	for i, en := range entries {
		if s.Loading() {
			en = &Entry{}
			entries[i] = en
		}
		s.Int(&en.Src)
		s.Int(&en.Dst)
		s.U64(&en.Seq)
		s.U64(&en.Origin)
		s.U64(&en.CurID)
		s.I64(&en.CreatedAt)
		s.Int(&en.Attempts)
		s.I64(&en.timeout)
		s.I64(&en.deadline)
		if s.Loading() {
			t.entries[entryKey{en.Src, en.Seq}] = en
		}
	}
	if s.Loading() {
		t.timers = append(t.timers, entries...)
		heap.Init(&t.timers)
		t.pending = len(t.entries)
	}

	s.I64(&t.retransmissions)
	s.I64(&t.recovered)
	snapshot.Slice(s, &t.giveUps, 8)
	for i := range t.giveUps {
		g := &t.giveUps[i]
		s.Int(&g.Src)
		s.Int(&g.Dst)
		s.U64(&g.Seq)
		s.U64(&g.Origin)
		s.Int(&g.Attempts)
		s.I64(&g.Cycle)
		snapshot.Enum(s, &g.Reason)
	}
}
