package fault

import (
	"sort"

	"github.com/rocosim/roco/internal/stats"
)

// Event is one scheduled runtime fault: Fault strikes at the beginning of
// cycle Cycle (before generation, ticking and injection of that cycle).
type Event struct {
	Cycle int64
	Fault Fault
}

// Schedule is an ordered sequence of runtime fault events that the network
// consumes as simulated time passes: Network.Step installs every event
// whose cycle has been reached, live, while traffic is in flight. The zero
// value is an empty schedule. A Schedule is a value type; copies share the
// underlying event list but advance their consumption cursor
// independently.
type Schedule struct {
	events []Event
	next   int
}

// NewSchedule returns a schedule over the given events, copied and
// stable-sorted by cycle (events in the same cycle keep their relative
// order).
func NewSchedule(events []Event) Schedule {
	out := make([]Event, len(events))
	copy(out, events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return Schedule{events: out}
}

// Len returns the total number of events, consumed or not.
func (s *Schedule) Len() int { return len(s.events) }

// Events returns a copy of the full event list in schedule order.
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Due returns the events whose cycle is <= cycle and that have not been
// returned before, advancing the consumption cursor past them. The
// returned slice aliases the schedule's storage; callers must not modify
// it.
func (s *Schedule) Due(cycle int64) []Event {
	start := s.next
	for s.next < len(s.events) && s.events[s.next].Cycle <= cycle {
		s.next++
	}
	return s.events[start:s.next]
}

// PoissonSchedule draws fault arrivals as a Poisson process: inter-arrival
// times are exponential with the given mean time to failure (in cycles),
// truncated at horizon. Like RandomSet, each fault strikes a distinct
// random node (so k events degrade k routers), with the component drawn
// uniformly from the class population, a uniform module, and a uniform VC
// in [0, vcsPerModule) for Buffer faults. The process stops early once
// every node has failed.
func PoissonSchedule(class Class, mttf float64, horizon int64, nodes, vcsPerModule int, rng *stats.RNG) Schedule {
	if mttf <= 0 {
		panic("fault: MTTF must be positive")
	}
	comps := class.Components()
	perm := rng.Perm(nodes)
	var events []Event
	t := int64(0)
	for i := 0; i < nodes; i++ {
		t += int64(rng.Exponential(mttf)) + 1
		if t > horizon {
			break
		}
		events = append(events, Event{
			Cycle: t,
			Fault: Fault{
				Node:      perm[i],
				Component: comps[rng.Intn(len(comps))],
				Module:    Module(rng.Intn(int(numModules))),
				VC:        rng.Intn(vcsPerModule),
			},
		})
	}
	return NewSchedule(events)
}
