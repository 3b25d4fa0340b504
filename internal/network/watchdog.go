package network

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
)

// maxStuckReported caps the per-flit detail in a watchdog report; the
// totals still cover everything.
const maxStuckReported = 16

// WatchdogReport is the livelock/starvation diagnostic built when a run
// terminates through the inactivity rule: nothing was delivered for
// InactivityLimit cycles even though undelivered traffic remains. It
// complements DetectDeadlock (which needs a true wait-for cycle) by also
// catching wedges without one — a packet granted into a channel that a
// runtime fault killed, a starved source, a livelocked adaptive loop.
type WatchdogReport struct {
	// Cycle is when the watchdog fired; LastDelivery the most recent
	// delivery; InactiveFor their distance.
	Cycle, LastDelivery, InactiveFor int64
	// BacklogFlits and BufferedFlits locate the undelivered traffic:
	// still at the sources vs. inside the network.
	BacklogFlits, BufferedFlits int64
	// Stuck lists the oldest stalled buffered packets (up to
	// maxStuckReported, by stall age); TotalStuck counts all of them.
	Stuck      []router.StuckFlit
	TotalStuck int
	// Deadlock is the wait-for cycle if one exists (nil otherwise: the
	// network is wedged without a cyclic dependency).
	Deadlock *DeadlockReport
	// Faults lists the runtime faults installed before the wedge.
	Faults []fault.Event
}

// buildWatchdog assembles the diagnostic from the current network state.
func (n *Network) buildWatchdog() *WatchdogReport {
	last := n.lastDelivery
	if last < n.measureStart {
		last = n.measureStart
	}
	w := &WatchdogReport{
		Cycle:        n.cycle,
		LastDelivery: n.lastDelivery,
		InactiveFor:  n.cycle - last,
		BacklogFlits: n.backlogFlits,
		Faults:       append([]fault.Event(nil), n.faultLog...),
	}
	for _, r := range n.routers {
		w.BufferedFlits += int64(r.BufferedFlits())
		w.Stuck = append(w.Stuck, r.StallScan(n.cycle)...)
	}
	w.TotalStuck = len(w.Stuck)
	sort.Slice(w.Stuck, func(i, j int) bool { return w.Stuck[i].StallAge > w.Stuck[j].StallAge })
	if len(w.Stuck) > maxStuckReported {
		w.Stuck = w.Stuck[:maxStuckReported]
	}
	if rep, ok := n.DetectDeadlock(); ok {
		w.Deadlock = &rep
	}
	return w
}

// String renders the report as a multi-line diagnostic.
func (w *WatchdogReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "watchdog: no delivery for %d cycles (cycle %d, last delivery %d)\n",
		w.InactiveFor, w.Cycle, w.LastDelivery)
	fmt.Fprintf(&sb, "  undelivered: %d flits at sources, %d buffered in routers, %d stalled packets\n",
		w.BacklogFlits, w.BufferedFlits, w.TotalStuck)
	for _, f := range w.Faults {
		fmt.Fprintf(&sb, "  fault @%d: %v\n", f.Cycle, f.Fault)
	}
	if w.Deadlock != nil {
		fmt.Fprintf(&sb, "  %s\n", w.Deadlock.String())
	}
	for _, s := range w.Stuck {
		state := "wedged"
		if s.Doomed {
			state = "draining"
		}
		fmt.Fprintf(&sb, "  stuck pkt %d (%d->%d, %d hops) at n%d vc%d: stalled %d cycles, %s\n",
			s.PacketID, s.Src, s.Dst, s.Hops, s.Node, s.VC, s.StallAge, state)
	}
	return strings.TrimRight(sb.String(), "\n")
}
