// Package topology provides the geometric substrate for on-chip networks:
// port directions, node coordinates, and Grid, the one topology type. A
// Grid is a 2D mesh or torus, optionally tiled into chiplets whose
// boundary links are die-to-die (D2D). Routers and routing algorithms are
// expressed in terms of the Direction and Grid types defined here.
package topology

import "fmt"

// Direction identifies a router port. The four cardinal directions name the
// inter-router links of a 2D grid; Local names the port that connects the
// router to its attached processing element (PE).
type Direction uint8

const (
	North Direction = iota
	East
	South
	West
	Local
	// Invalid is the zero-content sentinel for "no direction".
	Invalid
)

// CardinalDirections lists the four link directions in a fixed order.
var CardinalDirections = [4]Direction{North, East, South, West}

// String returns the conventional single-letter abbreviation of d.
func (d Direction) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	default:
		return "?"
	}
}

// Opposite returns the direction a flit leaving through d arrives from at
// the neighboring router. Opposite(Local) is Local: a flit handed to the PE
// stays at the node.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case East:
		return West
	case South:
		return North
	case West:
		return East
	case Local:
		return Local
	default:
		return Invalid
	}
}

// IsCardinal reports whether d is one of the four link directions.
func (d Direction) IsCardinal() bool {
	return d == North || d == East || d == South || d == West
}

// IsX reports whether d lies in the X dimension (East or West).
func (d Direction) IsX() bool { return d == East || d == West }

// IsY reports whether d lies in the Y dimension (North or South).
func (d Direction) IsY() bool { return d == North || d == South }

// Coord is a node position on the grid. X grows eastward, Y grows
// northward, with (0,0) at the south-west corner.
type Coord struct {
	X, Y int
}

// String formats the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// ManhattanDistance returns the minimal hop count between two coordinates
// on a mesh.
func ManhattanDistance(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
