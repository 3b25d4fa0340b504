package topology

import "testing"

// TestMultichipMatchesFlatGrid pins the load-bearing equivalence: a
// multi-chip topology's neighbor relation and numbering are exactly the
// flat grid's, chiplets only reclassify links.
func TestMultichipMatchesFlatGrid(t *testing.T) {
	mesh := NewMesh(8, 6)
	mc := NewGrid(4, 2, 2, 3, false)
	torus := NewGrid(1, 1, 8, 6, true)
	mct := NewGrid(4, 2, 2, 3, true)
	for _, pair := range []struct {
		name       string
		flat, chip *Grid
	}{{"mesh", mesh, mc}, {"torus", torus, mct}} {
		if pair.flat.Nodes() != pair.chip.Nodes() {
			t.Fatalf("%s: node counts differ", pair.name)
		}
		for id := 0; id < pair.flat.Nodes(); id++ {
			if pair.flat.Coord(id) != pair.chip.Coord(id) {
				t.Fatalf("%s: coord of %d differs", pair.name, id)
			}
			for _, d := range CardinalDirections {
				fn, fok := pair.flat.Neighbor(id, d)
				cn, cok := pair.chip.Neighbor(id, d)
				if fn != cn || fok != cok {
					t.Fatalf("%s: neighbor(%d, %s) = (%d,%v) flat vs (%d,%v) multichip",
						pair.name, id, d, fn, fok, cn, cok)
				}
			}
		}
	}
}

func TestMultichipChipOf(t *testing.T) {
	m := NewGrid(2, 2, 4, 4, false)
	cases := []struct {
		id   int
		chip Coord
	}{
		{0, Coord{0, 0}}, {3, Coord{0, 0}}, {4, Coord{1, 0}}, {7, Coord{1, 0}},
		{8 * 3, Coord{0, 0}}, {8*4 + 2, Coord{0, 1}}, {8*7 + 7, Coord{1, 1}},
	}
	for _, c := range cases {
		if got := m.ChipOf(c.id); got != c.chip {
			t.Errorf("ChipOf(%d) = %v, want %v", c.id, got, c.chip)
		}
	}
}

// TestMultichipLinkClass checks that exactly the boundary-crossing links
// are D2D, against a brute-force chip comparison.
func TestMultichipLinkClass(t *testing.T) {
	folded := NewGrid(1, 2, 4, 3, true)
	for _, tc := range []struct {
		name string
		topo *Grid
	}{
		{"mesh", NewGrid(3, 2, 2, 3, false)},
		{"torus", NewGrid(3, 2, 2, 3, true)},
		{"folded-wrap", folded},
	} {
		var d2d int
		for id := 0; id < tc.topo.Nodes(); id++ {
			for _, d := range CardinalDirections {
				nbr, ok := tc.topo.Neighbor(id, d)
				want := OnDie
				if ok && tc.topo.ChipOf(nbr) != tc.topo.ChipOf(id) {
					want = D2D
					d2d++
				}
				if got := tc.topo.LinkClass(id, d); got != want {
					t.Errorf("%s: LinkClass(%d, %s) = %v, want %v", tc.name, id, d, got, want)
				}
			}
		}
		if d2d == 0 {
			t.Errorf("%s: no D2D links found; test is vacuous", tc.name)
		}
	}
	// One chiplet wide, two high: the X wraps fold back onto the same die
	// and stay on-die, the Y wraps cross to the other chiplet.
	for y := 0; y < folded.Height(); y++ {
		if folded.LinkClass(folded.ID(Coord{0, y}), West) != OnDie || folded.LinkClass(folded.ID(Coord{3, y}), East) != OnDie {
			t.Errorf("folded-wrap: X wrap on row %d is not on-die", y)
		}
	}
	for x := 0; x < folded.Width(); x++ {
		if folded.LinkClass(folded.ID(Coord{x, 0}), South) != D2D || folded.LinkClass(folded.ID(Coord{x, 5}), North) != D2D {
			t.Errorf("folded-wrap: Y wrap on column %d is not D2D", x)
		}
	}
}

// TestMultichipSingleChipHasNoD2D: a 1x1 chiplet grid is the flat
// topology — every link on-die, even the torus wraps.
func TestMultichipSingleChipHasNoD2D(t *testing.T) {
	for _, topo := range []*Grid{NewMesh(6, 6), NewGrid(1, 1, 6, 6, true)} {
		for id := 0; id < topo.Nodes(); id++ {
			for _, d := range CardinalDirections {
				if topo.LinkClass(id, d) != OnDie {
					t.Fatalf("1x1 chiplet grid has a D2D link at node %d %s", id, d)
				}
			}
		}
		for _, d := range CardinalDirections {
			if ns := topo.InterfaceNodes(Coord{0, 0}, d); ns != nil {
				t.Fatalf("1x1 chiplet grid reports interface nodes %v toward %s", ns, d)
			}
		}
	}
}

func TestMultichipInterfaceNodes(t *testing.T) {
	m := NewGrid(2, 2, 4, 4, false)
	// Chip (0,0)'s east interface: the x=3 column, y=0..3.
	want := []int{3, 8 + 3, 16 + 3, 24 + 3}
	got := m.InterfaceNodes(Coord{0, 0}, East)
	if len(got) != len(want) {
		t.Fatalf("east interface of chip (0,0): got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("east interface of chip (0,0): got %v, want %v", got, want)
		}
	}
	// The global west edge has no interface on a mesh.
	if ns := m.InterfaceNodes(Coord{0, 0}, West); ns != nil {
		t.Fatalf("mesh edge reported interface nodes %v", ns)
	}
	// On the torus the same west side wraps to chip (1,0): a real D2D
	// interface.
	tor := NewGrid(2, 2, 4, 4, true)
	if ns := tor.InterfaceNodes(Coord{0, 0}, West); len(ns) != 4 {
		t.Fatalf("torus west wrap interface: got %v, want 4 nodes", ns)
	}
	// One chiplet wide with wrap: no East/West interface, since those
	// wraps stay on the die, but full North/South ones across the Y wraps.
	folded := NewGrid(1, 2, 4, 3, true)
	for y := 0; y < 2; y++ {
		chip := Coord{0, y}
		if e, w := folded.InterfaceNodes(chip, East), folded.InterfaceNodes(chip, West); e != nil || w != nil {
			t.Fatalf("folded-wrap: chip %v reports East %v / West %v interface nodes", chip, e, w)
		}
		if n, s := folded.InterfaceNodes(chip, North), folded.InterfaceNodes(chip, South); len(n) != 4 || len(s) != 4 {
			t.Fatalf("folded-wrap: chip %v North %v / South %v interface, want 4 nodes each", chip, n, s)
		}
	}
	// Every interface node's link in the interface direction is D2D.
	for _, tc := range []struct {
		topo *Grid
		name string
	}{{m, "mesh"}, {tor, "torus"}, {folded, "folded-wrap"}} {
		cx, cy := tc.topo.Chips()
		for x := 0; x < cx; x++ {
			for y := 0; y < cy; y++ {
				for _, d := range CardinalDirections {
					for _, id := range tc.topo.InterfaceNodes(Coord{x, y}, d) {
						if tc.topo.LinkClass(id, d) != D2D {
							t.Fatalf("%s: interface node %d of chip (%d,%d) toward %s has an on-die link", tc.name, id, x, y, d)
						}
						if tc.topo.ChipOf(id) != (Coord{x, y}) {
							t.Fatalf("%s: interface node %d not in chip (%d,%d)", tc.name, id, x, y)
						}
					}
				}
			}
		}
	}
}
