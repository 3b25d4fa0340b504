package network

import (
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/routertest"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// TestNoDeadlockAtHighLoad runs each router kind under each algorithm it
// supports at heavy load, samples the wait graph periodically, and
// asserts no channel cycle ever forms — the dynamic counterpart of the
// deadlock-freedom arguments in DESIGN.md. Each run must sample at least
// one wait edge, so a kind whose graph stays empty cannot pass vacuously.
func TestNoDeadlockAtHighLoad(t *testing.T) {
	cases := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
		algs  []routing.Algorithm
	}{
		{"generic", genericBuilder, routing.Algorithms[:]},
		{"roco", rocoBuilder, routing.Algorithms[:]},
		{"pathsensitive", psBuilder, routing.Algorithms[:]},
		{"pdr", pdrBuilder, []routing.Algorithm{routing.XY}},
	}
	for _, tc := range cases {
		for _, alg := range tc.algs {
			cfg := smokeConfig(alg, traffic.Uniform, 0.40, 77)
			cfg.Build = tc.build
			cfg.WarmupPackets = 0
			cfg.MeasurePackets = 1 << 30
			n := New(cfg)
			edges := 0
			for step := 0; step < 40; step++ {
				for i := 0; i < 50; i++ {
					n.Step()
				}
				if report, found := n.DetectDeadlock(); found {
					t.Fatalf("%s/%s: %s", tc.name, alg, report)
				}
				for id := 0; id < cfg.Topo.Nodes(); id++ {
					edges += len(n.Router(id).WaitEdges())
				}
			}
			if edges == 0 {
				t.Errorf("%s/%s: no wait edge sampled at load 0.40", tc.name, alg)
			}
			t.Logf("%s/%s: %d wait edges sampled", tc.name, alg, edges)
		}
	}
}

// TestWaitEdgesNameBlockedHeadCandidates blocks one head's VC allocation
// by claiming every channel it could request, then checks that the
// network's whole wait graph is exactly that head's edges to its
// candidates, written out by hand from each kind's candidate rule. On the
// 4x4 mesh the head is injected at node 5 (1,1); every target but the
// last leaves East for node 6 (2,1), whose channels the packet would claim
// from its West side.
func TestWaitEdgesNameBlockedHeadCandidates(t *testing.T) {
	const src, east = 5, 6
	edges := func(from, to int, vcs ...int) []WaitEdge {
		var out []WaitEdge
		for _, vc := range vcs {
			out = append(out, WaitEdge{FromNode: src, FromVC: from, ToNode: to, ToVC: vc})
		}
		return out
	}
	cases := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
		alg   routing.Algorithm
		dst   int
		// block is the router whose channels are claimed, from side.
		block int
		side  topology.Direction
		want  []WaitEdge
	}{
		// PE port channel 12 waits on node 6's West-port VCs 0-2
		// (channels 9-11); X-first packets under XY-YX only on VCs 0 and 2.
		{"generic", genericBuilder, routing.XY, 10, east, topology.West, edges(12, east, 9, 10, 11)},
		{"generic-xyyx", genericBuilder, routing.XYYX, 10, east, topology.West, edges(12, east, 9, 11)},
		// Injxy channel 2 waits on the txy channels 7 and 11, because the
		// head turns North at node 6.
		{"roco", rocoBuilder, routing.XY, 10, east, topology.West, edges(2, east, 7, 11)},
		// The NE set's injection channel 2 waits on the NE set's channel
		// for arrivals from the West, 1.
		{"pathsensitive", psBuilder, routing.XY, 10, east, topology.West, edges(2, east, 1)},
		// PE port channel 4 waits on node 6's fromW channels 2 and 3.
		{"pdr", pdrBuilder, routing.XY, 10, east, topology.West, edges(4, east, 2, 3)},
		// Bound North for node 9, the head takes the transfer leg and
		// waits on its own router's fromX channels 10 and 11.
		{"pdr-transfer", pdrBuilder, routing.XY, 9, src, topology.Local, edges(4, src, 10, 11)},
	}
	for _, tc := range cases {
		h := routertest.New(t, 4, 4, tc.alg, tc.build)
		blocked := h.Routers[tc.block]
		for vc := 0; vc < blocked.NumInputVCs(tc.side); vc++ {
			for blocked.ClaimInputVC(tc.side, vc) {
			}
		}
		h.Inject(t, src, tc.dst, 2)
		for i := 0; i < 4; i++ {
			h.Step()
		}
		var got []WaitEdge
		for _, r := range h.Routers {
			got = append(got, r.WaitEdges()...)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: wait graph %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeadlockDetectorFindsInjectedCycle feeds the detector a fabricated
// wait cycle through a stub router and checks it is reported.
func TestDeadlockDetectorFindsInjectedCycle(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 1)
	n := New(cfg)
	// Replace router 0 with a stub exposing a synthetic 2-edge cycle.
	stub := &waitStub{edges: []WaitEdge{
		{FromNode: 0, FromVC: 1, ToNode: 1, ToVC: 2},
		{FromNode: 1, FromVC: 2, ToNode: 0, ToVC: 1},
	}}
	n.routers[0] = stubRouter{n.routers[0], stub}
	report, found := n.DetectDeadlock()
	if !found {
		t.Fatal("detector missed an explicit cycle")
	}
	if len(report.Cycle) != 2 {
		t.Fatalf("cycle length %d, want 2 (%s)", len(report.Cycle), report)
	}
	if report.String() == "" {
		t.Error("empty report string")
	}
}

// TestDeadlockDetectorMultiNodeCycle hand-constructs a four-router wait-for
// cycle (0→1→5→4→0 on the 4x4 mesh) plus an acyclic distractor chain hanging
// off it, and checks the detector walks the full loop and reports it closed.
func TestDeadlockDetectorMultiNodeCycle(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 1)
	n := New(cfg)
	edges := map[int][]WaitEdge{
		0: {{FromNode: 0, FromVC: 0, ToNode: 1, ToVC: 1}},
		1: {
			{FromNode: 1, FromVC: 1, ToNode: 5, ToVC: 0},
			// Distractor: a wait that leads out of the cycle and dead-ends.
			{FromNode: 1, FromVC: 2, ToNode: 2, ToVC: 0},
		},
		5: {{FromNode: 5, FromVC: 0, ToNode: 4, ToVC: 2}},
		4: {{FromNode: 4, FromVC: 2, ToNode: 0, ToVC: 0}},
	}
	for id, e := range edges {
		n.routers[id] = stubRouter{n.routers[id], &waitStub{edges: e}}
	}
	report, found := n.DetectDeadlock()
	if !found {
		t.Fatal("detector missed a four-node cycle")
	}
	if len(report.Cycle) != 4 {
		t.Fatalf("cycle length %d, want 4 (%s)", len(report.Cycle), report)
	}
	// The reported edges must chain head-to-tail and close the loop.
	for i, e := range report.Cycle {
		next := report.Cycle[(i+1)%len(report.Cycle)]
		if e.ToNode != next.FromNode || e.ToVC != next.FromVC {
			t.Fatalf("edge %d (%+v) does not chain into %+v", i, e, next)
		}
	}
	// The search is deterministic: it starts from the lowest waiting
	// channel, so every search reports the same rotation of the cycle,
	// opening at (n0,vc0).
	if first := report.Cycle[0]; first.FromNode != 0 || first.FromVC != 0 {
		t.Errorf("cycle opens at (n%d,vc%d), want (n0,vc0): %s", first.FromNode, first.FromVC, report)
	}
	for i := 0; i < 20; i++ {
		if again, _ := n.DetectDeadlock(); !reflect.DeepEqual(again, report) {
			t.Fatalf("search %d reported %s, first search %s", i, again, report)
		}
	}
}

// TestDeadlockDetectorIgnoresAcyclicWaits: a long dependency chain without a
// back edge must not be reported — waiting is not deadlock.
func TestDeadlockDetectorIgnoresAcyclicWaits(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 1)
	n := New(cfg)
	for i := 0; i < 4; i++ {
		n.routers[i] = stubRouter{n.routers[i], &waitStub{edges: []WaitEdge{
			{FromNode: i, FromVC: 0, ToNode: i + 1, ToVC: 0},
		}}}
	}
	if report, found := n.DetectDeadlock(); found {
		t.Fatalf("false positive on an acyclic chain: %s", report)
	}
}

type waitStub struct{ edges []WaitEdge }

func (w *waitStub) WaitEdges() []WaitEdge { return w.edges }

// stubRouter wraps a real router, overriding only the wait graph.
type stubRouter struct {
	router.Router
	stub *waitStub
}

func (s stubRouter) WaitEdges() []WaitEdge { return s.stub.WaitEdges() }
