package routing

import (
	"testing"
	"testing/quick"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/topology"
)

type coordPair struct{ AX, AY, BX, BY uint8 }

func (p coordPair) coords(w, h int) (a, b topology.Coord) {
	a = topology.Coord{X: int(p.AX) % w, Y: int(p.AY) % h}
	b = topology.Coord{X: int(p.BX) % w, Y: int(p.BY) % h}
	return
}

func TestDimensionOrderXY(t *testing.T) {
	cur := topology.Coord{X: 3, Y: 3}
	cases := []struct {
		dst  topology.Coord
		want topology.Direction
	}{
		{topology.Coord{X: 5, Y: 1}, topology.East},
		{topology.Coord{X: 1, Y: 7}, topology.West},
		{topology.Coord{X: 3, Y: 7}, topology.North},
		{topology.Coord{X: 3, Y: 1}, topology.South},
		{topology.Coord{X: 3, Y: 3}, topology.Local},
	}
	for _, tc := range cases {
		if got := DimensionOrder(cur, tc.dst, flit.XFirst); got != tc.want {
			t.Errorf("XY %v->%v = %s, want %s", cur, tc.dst, got, tc.want)
		}
	}
}

func TestDimensionOrderYX(t *testing.T) {
	cur := topology.Coord{X: 3, Y: 3}
	if got := DimensionOrder(cur, topology.Coord{X: 5, Y: 1}, flit.YFirst); got != topology.South {
		t.Errorf("YX should move Y first, got %s", got)
	}
	if got := DimensionOrder(cur, topology.Coord{X: 5, Y: 3}, flit.YFirst); got != topology.East {
		t.Errorf("YX with zero Y offset should move X, got %s", got)
	}
}

func TestDimensionOrderReachesDestination(t *testing.T) {
	f := func(p coordPair, yFirst bool) bool {
		cur, dst := p.coords(8, 8)
		mode := flit.XFirst
		if yFirst {
			mode = flit.YFirst
		}
		for steps := 0; steps < 64; steps++ {
			d := DimensionOrder(cur, dst, mode)
			if d == topology.Local {
				return cur == dst
			}
			cur = step(cur, d)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func step(c topology.Coord, d topology.Direction) topology.Coord {
	switch d {
	case topology.North:
		c.Y++
	case topology.South:
		c.Y--
	case topology.East:
		c.X++
	case topology.West:
		c.X--
	}
	return c
}

// minimal reports whether moving from cur in direction d brings a packet
// one hop closer to dst.
func minimal(cur, dst topology.Coord, d topology.Direction) bool {
	return topology.ManhattanDistance(step(cur, d), dst) == topology.ManhattanDistance(cur, dst)-1
}

// TestProductiveAlwaysReduceDistance: every direction the route functions
// offer — dimension order in either mode and the odd-even set — is
// productive, and they offer one unless the packet has arrived.
func TestProductiveAlwaysReduceDistance(t *testing.T) {
	f := func(p coordPair, sx, sy uint8) bool {
		cur, dst := p.coords(8, 8)
		src := topology.Coord{X: int(sx) % 8, Y: int(sy) % 8}
		dirs := append(OddEvenDirs(src, cur, dst), DimensionOrder(cur, dst, flit.XFirst), DimensionOrder(cur, dst, flit.YFirst))
		if cur == dst {
			return len(dirs) == 2 && dirs[0] == topology.Local && dirs[1] == topology.Local
		}
		for _, d := range dirs {
			if !minimal(cur, dst, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOddEvenDirsNonEmptyAndMinimal(t *testing.T) {
	// The odd-even route function must always offer at least one
	// productive direction, and every offered direction must be minimal.
	f := func(p coordPair, sx, sy uint8) bool {
		cur, dst := p.coords(8, 8)
		src := topology.Coord{X: int(sx) % 8, Y: int(sy) % 8}
		if cur == dst {
			return len(OddEvenDirs(src, cur, dst)) == 0
		}
		dirs := OddEvenDirs(src, cur, dst)
		if len(dirs) == 0 {
			return false
		}
		for _, d := range dirs {
			if !minimal(cur, dst, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOddEvenTurnRules(t *testing.T) {
	// Walk every (src, dst) pair on a 6x6 mesh taking arbitrary permitted
	// directions; verify the forbidden turns never occur and the packet
	// always arrives.
	for sx := 0; sx < 6; sx++ {
		for sy := 0; sy < 6; sy++ {
			for dx := 0; dx < 6; dx++ {
				for dy := 0; dy < 6; dy++ {
					src := topology.Coord{X: sx, Y: sy}
					dst := topology.Coord{X: dx, Y: dy}
					cur := src
					var prev topology.Direction = topology.Invalid
					for steps := 0; steps < 24; steps++ {
						if cur == dst {
							break
						}
						dirs := OddEvenDirs(src, cur, dst)
						if len(dirs) == 0 {
							t.Fatalf("no dirs at %v for %v->%v", cur, src, dst)
						}
						d := dirs[steps%len(dirs)] // arbitrary adaptive choice
						if prev != topology.Invalid {
							checkOddEvenTurn(t, prev, d, cur)
						}
						cur = step(cur, d)
						prev = d
					}
					if cur != dst {
						t.Fatalf("%v->%v did not arrive", src, dst)
					}
				}
			}
		}
	}
}

// checkOddEvenTurn asserts Chiu's prohibitions: no EN/ES turn in an even
// column, no NW/SW turn in an odd column.
func checkOddEvenTurn(t *testing.T, prev, next topology.Direction, at topology.Coord) {
	t.Helper()
	even := at.X%2 == 0
	if prev == topology.East && (next == topology.North || next == topology.South) && even {
		t.Fatalf("E->%s turn at even column %v", next, at)
	}
	if (prev == topology.North || prev == topology.South) && next == topology.West && !even {
		t.Fatalf("%s->W turn at odd column %v", prev, at)
	}
}

func TestQuadrantOutputs(t *testing.T) {
	if NE.Outputs() != [2]topology.Direction{topology.North, topology.East} {
		t.Error("NE outputs wrong")
	}
	if SW.Outputs() != [2]topology.Direction{topology.South, topology.West} {
		t.Error("SW outputs wrong")
	}
}

func TestPacketQuadrantContainsAllMoves(t *testing.T) {
	// Every minimal move of a packet must be one of its quadrant's two
	// outputs — the invariant the Path-Sensitive router's deadlock freedom
	// rests on.
	f := func(p coordPair) bool {
		src, dst := p.coords(8, 8)
		if src == dst {
			return true
		}
		q := PacketQuadrant(src, dst)
		outs := q.Outputs()
		cur := src
		for steps := 0; steps < 32 && cur != dst; steps++ {
			moved := false
			for _, d := range [...]topology.Direction{XDirection(cur, dst), YDirection(cur, dst)} {
				if d == outs[0] || d == outs[1] {
					cur = step(cur, d)
					moved = true
					break
				}
			}
			if !moved {
				return false // stuck: a productive move left the quadrant
			}
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPacketQuadrantAxisBalance(t *testing.T) {
	// Pure-axis pairs must spread over both adjacent quadrants.
	counts := map[Quadrant]int{}
	for y := 0; y < 8; y++ {
		src := topology.Coord{X: 3, Y: 0}
		dst := topology.Coord{X: 3, Y: y}
		if y == 0 {
			continue
		}
		counts[PacketQuadrant(src, dst)]++
	}
	if counts[NE] == 0 || counts[NW] == 0 {
		t.Errorf("pure-north traffic should split between NE and NW: %v", counts)
	}
}

func TestTurnOf(t *testing.T) {
	cases := []struct {
		from, out topology.Direction
		want      Turn
	}{
		{topology.East, topology.West, ContinueX},
		{topology.West, topology.East, ContinueX},
		{topology.North, topology.South, ContinueY},
		{topology.East, topology.North, TurnXY},
		{topology.West, topology.South, TurnXY},
		{topology.North, topology.East, TurnYX},
		{topology.South, topology.West, TurnYX},
		{topology.Local, topology.East, InjectX},
		{topology.Local, topology.South, InjectY},
		{topology.East, topology.Local, Eject},
	}
	for _, tc := range cases {
		if got := TurnOf(tc.from, tc.out); got != tc.want {
			t.Errorf("TurnOf(%s,%s) = %s, want %s", tc.from, tc.out, got, tc.want)
		}
	}
}

func TestInjectionMode(t *testing.T) {
	if InjectionMode(XY, func() bool { return true }) != flit.XFirst {
		t.Error("XY must inject XFirst")
	}
	if InjectionMode(Adaptive, func() bool { return false }) != flit.ModeAdaptive {
		t.Error("adaptive must inject ModeAdaptive")
	}
	if InjectionMode(XYYX, func() bool { return true }) != flit.XFirst {
		t.Error("XYYX heads should follow the coin")
	}
	if InjectionMode(XYYX, func() bool { return false }) != flit.YFirst {
		t.Error("XYYX tails should follow the coin")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if XY.String() != "XY" || XYYX.String() != "XY-YX" || Adaptive.String() != "Adaptive" {
		t.Error("algorithm names wrong")
	}
}

func TestTorusDimensionOrderShortestWay(t *testing.T) {
	// On an 8-ring, (7,0)->(0,0) is one wrap hop East, not seven West.
	if d := TorusDimensionOrder(8, 8, topology.Coord{X: 7, Y: 0}, topology.Coord{X: 0, Y: 0}); d != topology.East {
		t.Errorf("wrap shortcut = %s, want E", d)
	}
	if d := TorusDimensionOrder(8, 8, topology.Coord{X: 0, Y: 1}, topology.Coord{X: 6, Y: 1}); d != topology.West {
		t.Errorf("short way to +6 = %s, want W (wrap)", d)
	}
	if d := TorusDimensionOrder(8, 8, topology.Coord{X: 2, Y: 2}, topology.Coord{X: 2, Y: 7}); d != topology.South {
		t.Errorf("short way to +5 in Y = %s, want S (wrap)", d)
	}
	if d := TorusDimensionOrder(8, 8, topology.Coord{X: 3, Y: 3}, topology.Coord{X: 3, Y: 3}); d != topology.Local {
		t.Errorf("self route = %s, want Local", d)
	}
}

func TestTorusDimensionOrderConverges(t *testing.T) {
	topo := topology.NewGrid(1, 1, 8, 8, true)
	for src := 0; src < topo.Nodes(); src += 5 {
		for dst := 0; dst < topo.Nodes(); dst += 3 {
			cur := topo.Coord(src)
			want := topo.Coord(dst)
			for hops := 0; cur != want; hops++ {
				if hops > 8 { // torus diameter is 8 on an 8x8
					t.Fatalf("%v->%v exceeded the torus diameter", topo.Coord(src), want)
				}
				d := TorusDimensionOrder(8, 8, cur, want)
				nb, ok := topo.Neighbor(topo.ID(cur), d)
				if !ok {
					t.Fatalf("route left the torus")
				}
				cur = topo.Coord(nb)
			}
		}
	}
}

func TestTorusHopWraps(t *testing.T) {
	cases := []struct {
		cur  topology.Coord
		d    topology.Direction
		want bool
	}{
		{topology.Coord{X: 7, Y: 0}, topology.East, true},
		{topology.Coord{X: 0, Y: 0}, topology.West, true},
		{topology.Coord{X: 3, Y: 7}, topology.North, true},
		{topology.Coord{X: 3, Y: 0}, topology.South, true},
		{topology.Coord{X: 3, Y: 3}, topology.East, false},
		{topology.Coord{X: 0, Y: 0}, topology.East, false},
	}
	for _, tc := range cases {
		if got := TorusHopWraps(8, 8, tc.cur, tc.d); got != tc.want {
			t.Errorf("TorusHopWraps(%v, %s) = %v", tc.cur, tc.d, got)
		}
	}
}
