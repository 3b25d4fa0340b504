package stats

import "github.com/rocosim/roco/internal/snapshot"

// State streams the generator state.
func (r *RNG) State(s *snapshot.Stream) {
	for i := range r.s {
		s.U64(&r.s[i])
	}
}

// State streams the accumulator.
func (r *Running) State(s *snapshot.Stream) {
	s.I64(&r.n)
	s.F64(&r.mean)
	s.F64(&r.m2)
	s.F64(&r.min)
	s.F64(&r.max)
}

// State streams the histogram, shape included. Loading into a histogram
// of another shape (bucket count or width) is corruption, never a silent
// rebinning.
func (h *Histogram) State(s *snapshot.Stream) {
	w := h.width
	if s.F64(&w); w != h.width {
		s.Corruptf("histogram width %v, want %v", w, h.width)
	}
	if n := s.Len(len(h.counts), 8); n != len(h.counts) {
		s.Corruptf("histogram buckets %d, want %d", n, len(h.counts))
		return
	}
	for i := range h.counts {
		s.I64(&h.counts[i])
	}
	s.I64(&h.over)
	s.I64(&h.total)
	h.running.State(s)
}
