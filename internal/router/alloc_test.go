package router

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

// The dormancy tests keep their TestHotState* names from the struct-of-
// arrays mirror the busy mask replaced.

// testEngine is a standalone engine for bare chassis.
func testEngine() *RouteEngine { return NewRouteEngine(topology.NewMesh(2, 2), routing.XY, nil) }

// bindTestRouters wires two bare chassis of two channels each and returns
// them alongside the channels, router-major.
func bindTestRouters(t *testing.T) ([2]*Chassis, []*VC) {
	t.Helper()
	vcs := []*VC{NewVC(0, 4), NewVC(1, 4), NewVC(0, 4), NewVC(1, 4)}
	var cs [2]*Chassis
	for id := range cs {
		cs[id] = &Chassis{}
		cs[id].InitChassis(id, testEngine(), vcs[2*id:2*id+2], 4, 1)
	}
	return cs, vcs
}

// checkDormancy asserts that each chassis's Idle() — one read of its busy
// mask — agrees with the per-channel Dormant() sweep and with want, and
// that the audit's recomputation agrees with every mask.
func checkDormancy(t *testing.T, step string, cs [2]*Chassis, want [2]bool) {
	t.Helper()
	for id, c := range cs {
		dormant := true
		for _, vc := range c.VCs {
			dormant = dormant && vc.Dormant()
		}
		if idle := c.Idle(); idle != dormant || idle != want[id] {
			t.Fatalf("%s: router %d Idle() = %v, Dormant() sweep %v, want %v", step, id, idle, dormant, want[id])
		}
		if err := c.AuditAlloc(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
}

// TestHotStateActivityTransitions is the table-driven edge check of the
// busy mask: each step mutates one bound channel through its public
// mutators, and each router's Idle() must flip exactly when its channels'
// Dormant() sweep does.
func TestHotStateActivityTransitions(t *testing.T) {
	cs, vcs := bindTestRouters(t)
	p1 := makePacketFlits(1, 2, topology.East)
	p2 := makePacketFlits(2, 1, topology.West)

	steps := []struct {
		name string
		op   func()
		idle [2]bool
	}{
		{"initial", func() {}, [2]bool{true, true}},
		// A claim reserves a slot but leaves the channel dormant: no work
		// exists until the claiming packet's first flit lands.
		{"claim alone stays dormant", func() { vcs[0].Claim(topology.West) }, [2]bool{true, true}},
		{"released claim stays dormant", func() {
			vcs[1].Claim(topology.South)
			vcs[1].ReleaseClaim()
		}, [2]bool{true, true}},
		{"head push wakes router 0", func() { vcs[0].PushFrom(p1[0], topology.West) }, [2]bool{false, true}},
		{"grant leaves it awake", func() { vcs[0].GrantRoute(0, topology.North) }, [2]bool{false, true}},
		{"second flit leaves it awake", func() { vcs[0].PushFrom(p1[1], topology.West) }, [2]bool{false, true}},
		{"second channel wakes router 1", func() {
			vcs[3].Claim(topology.North)
			vcs[3].PushFrom(p2[0], topology.North)
		}, [2]bool{false, false}},
		// Only a broken packet (or a fault) dooms a channel; quiet()
		// relies on it.
		{"doom leaves router 1 awake", func() {
			cs[1].Engine.Broken.Add(p2[0].PacketID, 0)
			vcs[3].Doom()
		}, [2]bool{false, false}},
		{"partial pop keeps router 0 awake", func() { vcs[0].Pop() }, [2]bool{false, false}},
		{"tail pop drains router 0 dormant", func() { vcs[0].Pop() }, [2]bool{true, false}},
		{"tail pop drains router 1 dormant", func() { vcs[3].Pop() }, [2]bool{true, true}},
	}
	for _, s := range steps {
		s.op()
		checkDormancy(t, s.name, cs, s.idle)
	}
}

// TestHotStateAbortFrontSleeps covers the recovery-path transition: a
// front packet whose flits all drained elsewhere is aborted, and the
// channel must fall dormant through the same busy-bit update as a tail
// pop.
func TestHotStateAbortFrontSleeps(t *testing.T) {
	cs, vcs := bindTestRouters(t)
	vc := vcs[2] // router 1, first channel
	vc.Claim(topology.South)
	vc.PushFrom(makePacketFlits(9, 2, topology.East)[0], topology.South)
	checkDormancy(t, "pushed head", cs, [2]bool{true, false})
	// The head streams out; the tail was dropped upstream and will never
	// arrive, so recovery aborts the stranded state. Resident packet state
	// alone keeps the router awake until then.
	vc.Pop()
	checkDormancy(t, "head popped", cs, [2]bool{true, false})
	vc.AbortFront()
	checkDormancy(t, "front aborted", cs, [2]bool{true, true})
}

// TestHotStateResync pins the snapshot-restore contract: a loading
// VC.State writes channel internals directly, and its closing syncAlloc
// must leave the busy mask exactly what the mutators would have built, in
// both directions.
func TestHotStateResync(t *testing.T) {
	cs, vcs := bindTestRouters(t)
	codec := &flit.Codec{}
	save := func(vc *VC) *snapshot.Decoder {
		e := snapshot.NewEncoder()
		vc.State(e.Stream(), codec)
		return frame(t, e)
	}
	idle := save(vcs[3])
	vcs[1].Claim(topology.East)
	vcs[1].PushFrom(makePacketFlits(5, 2, topology.East)[0], topology.East)
	busy := save(vcs[1])
	checkDormancy(t, "before load", cs, [2]bool{false, true})

	// Swap the two channels' states through the codec: router 1 wakes,
	// router 0 sleeps.
	vcs[3].State(busy.Stream(), codec)
	vcs[1].State(idle.Stream(), codec)
	for _, d := range []*snapshot.Decoder{busy, idle} {
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	checkDormancy(t, "after load", cs, [2]bool{true, false})

	// Mutators and a load must compose: the loaded packet's head pops,
	// its state stays resident, and aborting it puts router 1 to sleep.
	vcs[3].Pop()
	checkDormancy(t, "loaded head popped", cs, [2]bool{true, false})
	vcs[3].AbortFront()
	checkDormancy(t, "loaded front aborted", cs, [2]bool{true, true})
}

// TestHotStateBindPanics checks the chassis's binding guards: a router
// holds at most maxChannels channels, a channel's bit must fit the 64-bit
// masks, and a channel belongs to one router.
func TestHotStateBindPanics(t *testing.T) {
	t.Run("past maxChannels", func(t *testing.T) {
		vcs := make([]*VC, maxChannels+1)
		for i := range vcs {
			vcs[i] = NewVC(i, 2)
		}
		if !panics(func() { new(Chassis).InitChassis(0, testEngine(), vcs, 2, 1) }) {
			t.Errorf("a chassis of %d channels should panic", len(vcs))
		}
	})
	t.Run("past bit 63", func(t *testing.T) {
		if !panics(func() { NewVC(0, 2).bindAlloc(&AllocState{}, 64) }) {
			t.Error("binding a channel as bit 64 should panic")
		}
	})
	t.Run("double bind", func(t *testing.T) {
		vc := NewVC(0, 2)
		new(Chassis).InitChassis(0, testEngine(), []*VC{vc}, 2, 1)
		if !panics(func() { new(Chassis).InitChassis(1, testEngine(), []*VC{vc}, 2, 1) }) {
			t.Error("binding one channel to two routers should panic")
		}
	})
}
