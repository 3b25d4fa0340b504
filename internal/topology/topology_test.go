package topology

import (
	"testing"
	"testing/quick"
)

func TestDirectionOpposite(t *testing.T) {
	cases := map[Direction]Direction{
		North: South, South: North, East: West, West: East, Local: Local,
	}
	for d, want := range cases {
		if got := d.Opposite(); got != want {
			t.Errorf("Opposite(%s) = %s, want %s", d, got, want)
		}
	}
	if Invalid.Opposite() != Invalid {
		t.Error("Opposite(Invalid) should be Invalid")
	}
}

func TestDirectionDimensions(t *testing.T) {
	for _, d := range CardinalDirections {
		if d.IsX() == d.IsY() {
			t.Errorf("%s must lie in exactly one dimension", d)
		}
		if !d.IsCardinal() {
			t.Errorf("%s should be cardinal", d)
		}
	}
	if Local.IsCardinal() || Local.IsX() || Local.IsY() {
		t.Error("Local is not a cardinal direction")
	}
}

func TestDirectionStrings(t *testing.T) {
	want := map[Direction]string{North: "N", East: "E", South: "S", West: "W", Local: "L", Invalid: "?"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("String(%d) = %q, want %q", d, d.String(), s)
		}
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m := NewMesh(8, 8)
	for id := 0; id < m.Nodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := NewMesh(4, 3)
	// Interior node.
	id := m.ID(Coord{1, 1})
	for _, tc := range []struct {
		d    Direction
		want Coord
	}{
		{North, Coord{1, 2}}, {South, Coord{1, 0}}, {East, Coord{2, 1}}, {West, Coord{0, 1}},
	} {
		nb, ok := m.Neighbor(id, tc.d)
		if !ok || m.Coord(nb) != tc.want {
			t.Errorf("Neighbor(%v, %s) = %v,%v want %v", m.Coord(id), tc.d, m.Coord(nb), ok, tc.want)
		}
	}
	// Edges have no wrap-around.
	if _, ok := m.Neighbor(m.ID(Coord{0, 0}), West); ok {
		t.Error("west edge should have no west neighbor")
	}
	if _, ok := m.Neighbor(m.ID(Coord{3, 2}), North); ok {
		t.Error("north edge should have no north neighbor")
	}
	if _, ok := m.Neighbor(id, Local); ok {
		t.Error("Local is not a link")
	}
}

func TestMeshNeighborSymmetry(t *testing.T) {
	m := NewMesh(5, 7)
	for id := 0; id < m.Nodes(); id++ {
		for _, d := range CardinalDirections {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(nb, d.Opposite())
			if !ok2 || back != id {
				t.Fatalf("neighbor symmetry broken at %d dir %s", id, d)
			}
		}
	}
}

func TestTorusWrapAround(t *testing.T) {
	tr := NewGrid(1, 1, 4, 4, true)
	nb, ok := tr.Neighbor(tr.ID(Coord{0, 0}), West)
	if !ok || tr.Coord(nb) != (Coord{3, 0}) {
		t.Errorf("torus west wrap = %v, want (3,0)", tr.Coord(nb))
	}
	nb, ok = tr.Neighbor(tr.ID(Coord{2, 3}), North)
	if !ok || tr.Coord(nb) != (Coord{2, 0}) {
		t.Errorf("torus north wrap = %v, want (2,0)", tr.Coord(nb))
	}
	// Every torus node has all four neighbors.
	for id := 0; id < tr.Nodes(); id++ {
		for _, d := range CardinalDirections {
			if _, ok := tr.Neighbor(id, d); !ok {
				t.Fatalf("torus node %d missing neighbor %s", id, d)
			}
		}
	}
}

func TestTorusNeighborSymmetry(t *testing.T) {
	tr := NewGrid(1, 1, 3, 5, true)
	for id := 0; id < tr.Nodes(); id++ {
		for _, d := range CardinalDirections {
			nb, _ := tr.Neighbor(id, d)
			back, _ := tr.Neighbor(nb, d.Opposite())
			if back != id {
				t.Fatalf("torus symmetry broken at %d dir %s", id, d)
			}
		}
	}
}

func TestManhattanDistanceProperties(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		d := ManhattanDistance(a, b)
		// Symmetric, non-negative, zero iff equal.
		if d != ManhattanDistance(b, a) || d < 0 {
			return false
		}
		return (d == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeshPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMesh(1,1) should panic")
		}
	}()
	NewMesh(1, 1)
}

func TestCoordOutOfRangePanics(t *testing.T) {
	m := NewMesh(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Coord(99) should panic")
		}
	}()
	m.Coord(99)
}

func TestParseGrid(t *testing.T) {
	for _, s := range []string{"2x3", " 2X3 ", "2 x 3"} {
		if w, h, err := ParseGrid(s); err != nil || w != 2 || h != 3 {
			t.Errorf("ParseGrid(%q) = %d, %d, %v; want 2, 3", s, w, h, err)
		}
	}
	for _, s := range []string{"", "2", "2x", "x2", "0x2", "2x-1", "2x2abc", "2.5x2", "2x2x2"} {
		if w, h, err := ParseGrid(s); err == nil {
			t.Errorf("ParseGrid(%q) = %d, %d; want an error", s, w, h)
		}
	}
}
