package fault

import "github.com/rocosim/roco/internal/snapshot"

// State streams one event (the network's fault log uses it too).
func (ev *Event) State(s *snapshot.Stream) {
	s.I64(&ev.Cycle)
	s.Int(&ev.Fault.Node)
	snapshot.Enum(s, &ev.Fault.Component)
	snapshot.Enum(s, &ev.Fault.Module)
	s.Int(&ev.Fault.VC)
	snapshot.Enum(s, &ev.Fault.Port)
}

// State streams the schedule's consumption cursor. The event list itself
// is configuration (rebuilt from the run's Config on resume); only the
// cursor is runtime state. Loading into a schedule with a different
// event count (a different schedule) is corruption.
func (sc *Schedule) State(s *snapshot.Stream) {
	n, next := len(sc.events), sc.next
	s.Int(&n)
	s.Int(&next)
	if n != len(sc.events) {
		s.Corruptf("fault schedule has %d events, snapshot had %d", len(sc.events), n)
		return
	}
	if next < 0 || next > len(sc.events) {
		s.Corruptf("fault schedule cursor %d out of range", next)
		return
	}
	sc.next = next
}
