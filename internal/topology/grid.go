package topology

import "fmt"

// Grid is the one topology of the simulator: a W x H grid of routers,
// tiled into a CX x CY grid of chiplets of ChipW x ChipH nodes each, with
// or without wrap-around links at the global edges. Its four shapes are
//
//   - the mesh, one chiplet without wrap (the paper evaluates an 8 x 8);
//   - the torus, one chiplet with wrap;
//   - the multi-chip mesh and the multi-chip torus, several chiplets.
//
// Node ids and coordinates are those of the flat global grid in row-major
// order, so the tiling changes neither numbering nor connectivity: a link
// that crosses a chiplet boundary is classed D2D, every other link is
// on-die. A wrap that folds back onto the same chiplet stays on-die, so a
// single die has no D2D links and no interfaces.
type Grid struct {
	w, h   int  // global grid (cx*pw x cy*ph)
	cx, cy int  // chiplet grid
	pw, ph int  // nodes per chiplet
	wrap   bool // wrap-around links at the global edges
}

// NewMesh returns a width x height mesh: one chiplet, no wrap. Both
// dimensions must be at least 2.
func NewMesh(width, height int) *Grid { return NewGrid(1, 1, width, height, false) }

// NewGrid returns a chipsX x chipsY grid of chipW x chipH chiplets, with
// wrap-around links at the global edges when wrap is set. Every count must
// be at least 1 and the global grid (chipsX*chipW x chipsY*chipH) at least
// 2x2.
func NewGrid(chipsX, chipsY, chipW, chipH int, wrap bool) *Grid {
	if chipsX < 1 || chipsY < 1 || chipW < 1 || chipH < 1 {
		panic(fmt.Sprintf("topology: a grid needs at least one chiplet of at least one node, got %dx%d chiplets of %dx%d",
			chipsX, chipsY, chipW, chipH))
	}
	w, h := chipsX*chipW, chipsY*chipH
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: grid dimensions must be >= 2, got %dx%d", w, h))
	}
	return &Grid{w: w, h: h, cx: chipsX, cy: chipsY, pw: chipW, ph: chipH, wrap: wrap}
}

// Nodes returns the global node count.
func (g *Grid) Nodes() int { return g.w * g.h }

// Width returns the global X dimension.
func (g *Grid) Width() int { return g.w }

// Height returns the global Y dimension.
func (g *Grid) Height() int { return g.h }

// Wraps reports whether the grid has wrap-around links at its edges (a
// torus, flat or multi-chip).
func (g *Grid) Wraps() bool { return g.wrap }

// Chips returns the chiplet grid dimensions (1, 1 for a single die).
func (g *Grid) Chips() (cx, cy int) { return g.cx, g.cy }

// Coord returns the position of node id. It panics if id is out of range.
func (g *Grid) Coord(id int) Coord {
	if id < 0 || id >= g.Nodes() {
		panic(fmt.Sprintf("topology: node id %d out of range [0,%d)", id, g.Nodes()))
	}
	return Coord{X: id % g.w, Y: id / g.w}
}

// ID returns the node at position c. It panics if c is outside the grid.
func (g *Grid) ID(c Coord) int {
	if c.X < 0 || c.X >= g.w || c.Y < 0 || c.Y >= g.h {
		panic(fmt.Sprintf("topology: coordinate %v outside %dx%d grid", c, g.w, g.h))
	}
	return c.Y*g.w + c.X
}

// Neighbor returns the node reached by leaving id through d, and whether
// such a link exists: false for Local and Invalid, and at the edges of a
// grid that does not wrap.
func (g *Grid) Neighbor(id int, d Direction) (int, bool) {
	c := g.Coord(id)
	switch d {
	case North:
		c.Y++
	case East:
		c.X++
	case South:
		c.Y--
	case West:
		c.X--
	default:
		return 0, false
	}
	if g.wrap {
		c.X = (c.X + g.w) % g.w
		c.Y = (c.Y + g.h) % g.h
	} else if c.X < 0 || c.X >= g.w || c.Y < 0 || c.Y >= g.h {
		return 0, false
	}
	return c.Y*g.w + c.X, true
}

// ChipOf returns the chiplet coordinate holding node id.
func (g *Grid) ChipOf(id int) Coord {
	c := g.Coord(id)
	return Coord{X: c.X / g.pw, Y: c.Y / g.ph}
}

// LinkClass classifies one directed link of a topology by its physical
// substrate. Links within a chiplet are ordinary on-die wires; links that
// cross a chiplet boundary are die-to-die (D2D), which the network wires
// with their own latency, serialization bandwidth and per-flit energy.
type LinkClass uint8

const (
	// OnDie is an ordinary 1-cycle on-die wire.
	OnDie LinkClass = iota
	// D2D is a die-to-die boundary link between two chiplets.
	D2D
)

// String names the link class for reports.
func (c LinkClass) String() string {
	if c == D2D {
		return "d2d"
	}
	return "on-die"
}

// LinkClass classifies the link leaving id through d: D2D when it crosses
// a chiplet boundary, OnDie otherwise, including for links that do not
// exist (callers gate on Neighbor).
func (g *Grid) LinkClass(id int, d Direction) LinkClass {
	if nbr, ok := g.Neighbor(id, d); ok && g.ChipOf(nbr) != g.ChipOf(id) {
		return D2D
	}
	return OnDie
}

// InterfaceNodes returns the nodes of chip whose link in direction d is
// D2D (the near side of the chip's d-facing interface), in ascending id
// order. It returns nil when that side has no interface: a grid edge
// without wrap, a wrap onto the same chiplet, or any side of a single die.
func (g *Grid) InterfaceNodes(chip Coord, d Direction) []int {
	if chip.X < 0 || chip.X >= g.cx || chip.Y < 0 || chip.Y >= g.cy {
		panic(fmt.Sprintf("topology: chiplet %v outside %dx%d chiplet grid", chip, g.cx, g.cy))
	}
	var ids []int
	for y := chip.Y * g.ph; y < (chip.Y+1)*g.ph; y++ {
		for x := chip.X * g.pw; x < (chip.X+1)*g.pw; x++ {
			if id := y*g.w + x; g.LinkClass(id, d) == D2D {
				ids = append(ids, id)
			}
		}
	}
	return ids
}
