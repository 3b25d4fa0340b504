package fault

import (
	"testing"

	"github.com/rocosim/roco/internal/stats"
)

func TestScheduleDueOrderAndCursor(t *testing.T) {
	s := NewSchedule([]Event{
		{Cycle: 30, Fault: Fault{Node: 3, Component: VA}},
		{Cycle: 10, Fault: Fault{Node: 1, Component: Crossbar}},
		{Cycle: 10, Fault: Fault{Node: 2, Component: SA}},
	})
	if s.Len() != 3 || s.next != 0 {
		t.Fatalf("Len=%d cursor=%d, want 3/0", s.Len(), s.next)
	}
	if got := s.Due(5); len(got) != 0 {
		t.Fatalf("nothing due at cycle 5, got %d events", len(got))
	}
	due := s.Due(10)
	if len(due) != 2 || due[0].Fault.Node != 1 || due[1].Fault.Node != 2 {
		t.Fatalf("cycle 10 due = %+v, want nodes 1,2 in insertion-stable order", due)
	}
	if got := s.Due(10); len(got) != 0 {
		t.Fatal("events delivered twice")
	}
	if s.next != 2 {
		t.Fatalf("cursor=%d after two consumed, want 2", s.next)
	}
	// A late caller gets everything overdue at once.
	if due := s.Due(100); len(due) != 1 || due[0].Cycle != 30 {
		t.Fatalf("overdue delivery = %+v, want the cycle-30 event", due)
	}
	if s.next != 3 {
		t.Fatal("schedule should be exhausted")
	}
}

func TestScheduleEventsSortedCopy(t *testing.T) {
	src := []Event{
		{Cycle: 20, Fault: Fault{Node: 1}},
		{Cycle: 5, Fault: Fault{Node: 0}},
	}
	s := NewSchedule(src)
	ev := s.Events()
	if ev[0].Cycle != 5 || ev[1].Cycle != 20 {
		t.Fatalf("events not sorted by cycle: %+v", ev)
	}
	src[0].Cycle = 999 // the schedule must own its storage
	if s.Events()[1].Cycle != 20 {
		t.Fatal("schedule aliases the caller's slice")
	}
}

func TestPoissonScheduleDeterministicAndDistinct(t *testing.T) {
	a := PoissonSchedule(Critical, 500, 100000, 64, 12, stats.NewRNG(7))
	b := PoissonSchedule(Critical, 500, 100000, 64, 12, stats.NewRNG(7))
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different lengths: %d vs %d", a.Len(), b.Len())
	}
	if a.Len() == 0 {
		t.Fatal("mttf 500 over 100k cycles should draw events")
	}
	seen := map[int]bool{}
	lastCycle := int64(-1)
	for i, ev := range a.Events() {
		if ev != b.Events()[i] {
			t.Fatal("same seed produced different schedules")
		}
		if ev.Cycle <= lastCycle && seen[ev.Fault.Node] {
			t.Fatal("events out of order")
		}
		if ev.Cycle < 0 || ev.Cycle > 100000 {
			t.Fatalf("event cycle %d outside horizon", ev.Cycle)
		}
		lastCycle = ev.Cycle
		if seen[ev.Fault.Node] {
			t.Fatalf("node %d struck twice", ev.Fault.Node)
		}
		seen[ev.Fault.Node] = true
		if ev.Fault.Component == RC || ev.Fault.Component == Buffer {
			t.Fatalf("critical schedule drew %s", ev.Fault.Component)
		}
	}
}

func TestPoissonScheduleStopsAtNodeExhaustion(t *testing.T) {
	s := PoissonSchedule(NonCritical, 1, 1_000_000, 4, 12, stats.NewRNG(3))
	if s.Len() > 4 {
		t.Fatalf("%d events over 4 nodes; faults must strike distinct nodes", s.Len())
	}
}

func TestPoissonScheduleBadMTTFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive mttf should panic")
		}
	}()
	PoissonSchedule(Critical, 0, 1000, 16, 12, stats.NewRNG(1))
}
