package core

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// classCounts tallies the number of channels per class.
func classCounts(cfg VCConfig) map[routing.Turn]int {
	out := map[routing.Turn]int{}
	for _, c := range cfg.Class {
		out[c]++
	}
	return out
}

func TestTable1MatchesPaper(t *testing.T) {
	// The exact per-path-set labels of the paper's Table 1.
	want := map[routing.Algorithm][4][3]routing.Turn{
		routing.XY: {
			{routing.ContinueX, routing.ContinueX, routing.InjectX},
			{routing.ContinueX, routing.ContinueX, routing.InjectX},
			{routing.ContinueY, routing.TurnXY, routing.InjectY},
			{routing.ContinueY, routing.ContinueY, routing.TurnXY},
		},
		routing.XYYX: {
			{routing.ContinueX, routing.TurnYX, routing.InjectX},
			{routing.ContinueX, routing.ContinueX, routing.TurnYX},
			{routing.ContinueY, routing.TurnXY, routing.InjectY},
			{routing.ContinueY, routing.ContinueY, routing.TurnXY},
		},
		routing.Adaptive: {
			{routing.ContinueX, routing.TurnYX, routing.InjectX},
			{routing.ContinueX, routing.ContinueX, routing.TurnYX},
			{routing.ContinueY, routing.TurnXY, routing.InjectY},
			{routing.ContinueY, routing.TurnXY, routing.TurnXY},
		},
	}
	for alg, sets := range want {
		cfg := ConfigFor(alg)
		for set := 0; set < 4; set++ {
			for slot := 0; slot < VCsPerSet; slot++ {
				id := set*VCsPerSet + slot
				if cfg.Class[id] != sets[set][slot] {
					t.Errorf("%s: vc %d class = %s, want %s", alg, id, cfg.Class[id], sets[set][slot])
				}
			}
		}
	}
}

func TestTable1ClassTotals(t *testing.T) {
	// Section 3.1's accounting: XY has 4 dx / 3 dy / 2 txy / 2 Injxy /
	// 1 Injyx; XY-YX trades an Injxy and a dx for two tyx; adaptive trades
	// a dy for a txy.
	cases := map[routing.Algorithm]map[routing.Turn]int{
		routing.XY: {
			routing.ContinueX: 4, routing.ContinueY: 3, routing.TurnXY: 2,
			routing.InjectX: 2, routing.InjectY: 1,
		},
		routing.XYYX: {
			routing.ContinueX: 3, routing.ContinueY: 3, routing.TurnXY: 2,
			routing.TurnYX: 2, routing.InjectX: 1, routing.InjectY: 1,
		},
		routing.Adaptive: {
			routing.ContinueX: 3, routing.ContinueY: 2, routing.TurnXY: 3,
			routing.TurnYX: 2, routing.InjectX: 1, routing.InjectY: 1,
		},
	}
	for alg, want := range cases {
		got := classCounts(ConfigFor(alg))
		for class, n := range want {
			if got[class] != n {
				t.Errorf("%s: %d %s channels, want %d", alg, got[class], class, n)
			}
		}
	}
}

func TestChainClassesAreDirectionSplit(t *testing.T) {
	// Every class that chains along a dimension must have channels in both
	// directions (otherwise one travel direction has no channel at all),
	// and every chain channel must carry a direction (head-on sharing of a
	// chain channel deadlocks).
	for _, alg := range routing.Algorithms {
		cfg := ConfigFor(alg)
		chainDirs := map[routing.Turn]map[topology.Direction]int{}
		for id, class := range cfg.Class {
			switch class {
			case routing.ContinueX, routing.ContinueY:
				if cfg.Dir[id] == topology.Invalid {
					t.Errorf("%s: chain channel %d (%s) has no direction", alg, id, class)
					continue
				}
				if chainDirs[class] == nil {
					chainDirs[class] = map[topology.Direction]int{}
				}
				chainDirs[class][cfg.Dir[id]]++
			}
		}
		if chainDirs[routing.ContinueX][topology.East] == 0 || chainDirs[routing.ContinueX][topology.West] == 0 {
			t.Errorf("%s: dx channels must cover both East and West", alg)
		}
		if chainDirs[routing.ContinueY][topology.North] == 0 || chainDirs[routing.ContinueY][topology.South] == 0 {
			t.Errorf("%s: dy channels must cover both North and South", alg)
		}
	}
}

func TestXYYXTyxDirectionSplit(t *testing.T) {
	// Under XY-YX the tyx channels carry Y-first packets' whole X legs, so
	// they chain and must be direction-split.
	cfg := ConfigFor(routing.XYYX)
	dirs := map[topology.Direction]bool{}
	for id, class := range cfg.Class {
		if class == routing.TurnYX {
			if cfg.Dir[id] == topology.Invalid {
				t.Fatalf("XYYX tyx channel %d must be direction-assigned", id)
			}
			dirs[cfg.Dir[id]] = true
		}
	}
	if !dirs[topology.East] || !dirs[topology.West] {
		t.Error("XYYX tyx channels must cover both East and West")
	}
}

func TestAdmitsEveryTransitionHasAChannel(t *testing.T) {
	// For every algorithm, every (turn, mode, direction) combination a
	// packet can actually need must be admitted by at least one channel.
	type need struct {
		turn routing.Turn
		mode flit.RouteMode
		out  topology.Direction
	}
	needsFor := map[routing.Algorithm][]need{
		routing.XY: {
			{routing.ContinueX, flit.XFirst, topology.East},
			{routing.ContinueX, flit.XFirst, topology.West},
			{routing.ContinueY, flit.XFirst, topology.North},
			{routing.ContinueY, flit.XFirst, topology.South},
			{routing.TurnXY, flit.XFirst, topology.North},
			{routing.TurnXY, flit.XFirst, topology.South},
			{routing.InjectX, flit.XFirst, topology.East},
			{routing.InjectY, flit.XFirst, topology.North},
		},
		routing.XYYX: {
			{routing.ContinueX, flit.XFirst, topology.East},
			{routing.ContinueX, flit.XFirst, topology.West},
			{routing.ContinueX, flit.YFirst, topology.East}, // rides tyx
			{routing.ContinueX, flit.YFirst, topology.West},
			{routing.ContinueY, flit.XFirst, topology.North},
			{routing.ContinueY, flit.YFirst, topology.South},
			{routing.TurnXY, flit.XFirst, topology.North},
			{routing.TurnYX, flit.YFirst, topology.East},
			{routing.TurnYX, flit.YFirst, topology.West},
		},
		routing.Adaptive: {
			{routing.ContinueX, flit.ModeAdaptive, topology.East},
			{routing.ContinueX, flit.ModeAdaptive, topology.West},
			{routing.ContinueY, flit.ModeAdaptive, topology.North},
			{routing.ContinueY, flit.ModeAdaptive, topology.South},
			{routing.TurnXY, flit.ModeAdaptive, topology.North},
			{routing.TurnXY, flit.ModeAdaptive, topology.South},
			{routing.TurnYX, flit.ModeAdaptive, topology.East},
			{routing.TurnYX, flit.ModeAdaptive, topology.West},
		},
	}
	for alg, needs := range needsFor {
		cfg := ConfigFor(alg)
		for _, n := range needs {
			if cfg.AdmitMask(n.turn, n.mode, n.out) == 0 {
				t.Errorf("%s: no channel admits turn=%s mode=%s out=%s", alg, n.turn, n.mode, n.out)
			}
		}
	}
}

func TestModuleLayout(t *testing.T) {
	for id := 0; id < NumVCs; id++ {
		wantModule := Row
		if id >= 6 {
			wantModule = Col
		}
		if ModuleOfVC(id) != wantModule {
			t.Errorf("vc %d module = %s", id, ModuleOfVC(id))
		}
	}
	if PortOfVC(0) != 0 || PortOfVC(3) != 1 || PortOfVC(6) != 0 || PortOfVC(11) != 1 {
		t.Error("port layout wrong")
	}
	if ModuleOf(topology.East) != Row || ModuleOf(topology.North) != Col {
		t.Error("module-of-direction wrong")
	}
	if DirSlot(topology.East) != 0 || DirSlot(topology.South) != 1 {
		t.Error("direction slots wrong")
	}
}

func TestModuleClassesStayInModule(t *testing.T) {
	// dx/tyx/Injxy channels must live in the Row module; dy/txy/Injyx in
	// the Column module — guided flit queuing depends on it.
	for _, alg := range routing.Algorithms {
		cfg := ConfigFor(alg)
		for id, class := range cfg.Class {
			m := ModuleOfVC(id)
			switch class {
			case routing.ContinueX, routing.TurnYX, routing.InjectX:
				if m != Row {
					t.Errorf("%s: %s channel %d must be in the row module", alg, class, id)
				}
			case routing.ContinueY, routing.TurnXY, routing.InjectY:
				if m != Col {
					t.Errorf("%s: %s channel %d must be in the column module", alg, class, id)
				}
			}
		}
	}
}

func TestMinimumVCs(t *testing.T) {
	if MinimumVCs(routing.XY) != 8 || MinimumVCs(routing.XYYX) != 10 || MinimumVCs(routing.Adaptive) != 12 {
		t.Error("minimum VC counts should match Section 3.1")
	}
}
