package power

import (
	"math"
	"testing"

	"github.com/rocosim/roco/internal/router"
)

func TestStructuralOrdering(t *testing.T) {
	gen := NewProfile(GenericStructure())
	ps := NewProfile(PathSensitiveStructure())
	rc := NewProfile(RoCoStructure())

	// The 2x2 crossbars must be the cheapest to traverse, the 5x5 the most
	// expensive; the decomposed 4x4 sits between.
	if !(rc.CrossbarXfer < ps.CrossbarXfer && ps.CrossbarXfer < gen.CrossbarXfer) {
		t.Errorf("crossbar energy ordering wrong: roco=%g ps=%g gen=%g",
			rc.CrossbarXfer, ps.CrossbarXfer, gen.CrossbarXfer)
	}
	// Smaller arbiters: 2v:1 < 3v:1 < 5v:1.
	if !(rc.VAOp < ps.VAOp && ps.VAOp < gen.VAOp) {
		t.Errorf("VA energy ordering wrong: roco=%g ps=%g gen=%g", rc.VAOp, ps.VAOp, gen.VAOp)
	}
	// Identical buffering means identical per-flit buffer energy.
	if rc.BufferWrite != gen.BufferWrite || rc.BufferRead != gen.BufferRead {
		t.Error("buffer energies should not depend on the router kind")
	}
	// Crossbar leakage tracks crosspoint count: generic's 25 > roco's 8.
	if !(rc.LeakagePerCycle < gen.LeakagePerCycle) {
		t.Errorf("leakage ordering wrong: roco=%g gen=%g", rc.LeakagePerCycle, gen.LeakagePerCycle)
	}
}

func TestAccountArithmetic(t *testing.T) {
	p := Profile{
		BufferWrite: 1, BufferRead: 2, CrossbarXfer: 3, LinkXfer: 4,
		VAOp: 5, SAOp: 6, RouteComp: 7, EjectDelivery: 8, LeakagePerCycle: 10,
	}
	a := &router.Activity{
		BufferWrites: 1, BufferReads: 1, CrossbarTraversals: 1, LinkFlits: 1,
		VAOps: 1, SAOps: 1, RouteComputations: 1, Ejections: 1, EarlyEjections: 1,
		Cycles: 2,
	}
	rep := Account(p, a)
	wantDyn := 1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8*2
	if rep.DynamicNJ != wantDyn {
		t.Errorf("dynamic = %v, want %v", rep.DynamicNJ, wantDyn)
	}
	if rep.LeakageNJ != 20 {
		t.Errorf("leakage = %v, want 20", rep.LeakageNJ)
	}
	if rep.TotalNJ() != wantDyn+20 {
		t.Error("total mismatch")
	}
	if rep.PerPacketNJ(2) != (wantDyn+20)/2 {
		t.Error("per-packet mismatch")
	}
	if rep.PerPacketNJ(0) != 0 {
		t.Error("per-packet with no deliveries should be 0")
	}
}

func TestSqrtf(t *testing.T) {
	for _, v := range []float64{1, 4, 16, 25, 2} {
		if math.Abs(sqrtf(v)-math.Sqrt(v)) > 1e-9 {
			t.Errorf("sqrtf(%v) = %v", v, sqrtf(v))
		}
	}
	if sqrtf(0) != 0 {
		t.Error("sqrtf(0) should be 0")
	}
}

func TestProfileString(t *testing.T) {
	if NewProfile(RoCoStructure()).String() == "" {
		t.Error("empty profile string")
	}
}

func TestAccountDetailedMatchesAccount(t *testing.T) {
	p := NewProfile(RoCoStructure())
	a := &router.Activity{
		BufferWrites: 100, BufferReads: 90, CrossbarTraversals: 90,
		LinkFlits: 80, VAOps: 30, SAOps: 120, RouteComputations: 25,
		Ejections: 5, EarlyEjections: 10, Cycles: 1000,
	}
	sum := Account(p, a)
	split := AccountDetailed(p, a)
	total := split.BuffersNJ + split.CrossbarNJ + split.LinksNJ + split.ArbitrationNJ + split.RoutingNJ + split.EjectionNJ + split.LeakageNJ
	if diff := total - sum.TotalNJ(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("breakdown total %v != account total %v", total, sum.TotalNJ())
	}
	if split.BuffersNJ <= 0 || split.LeakageNJ <= 0 {
		t.Error("breakdown groups should be positive for nonzero activity")
	}
}
