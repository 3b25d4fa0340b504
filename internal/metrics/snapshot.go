package metrics

import "github.com/rocosim/roco/internal/snapshot"

// State streams the latency accumulator and histogram. A loading
// receiver must come from NewLatency so the histogram shape matches.
func (l *Latency) State(s *snapshot.Stream) {
	l.run.State(s)
	l.hist.State(s)
}

// State streams the completion counters.
func (c *Completion) State(s *snapshot.Stream) {
	s.I64(&c.Generated)
	s.I64(&c.Delivered)
}
