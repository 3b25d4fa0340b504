// Package routing implements the three routing disciplines the paper
// evaluates — deterministic XY (dimension-order), oblivious XY-YX, and
// minimal adaptive routing with escape channels — together with the
// look-ahead helpers the RoCo and Path-Sensitive routers rely on.
//
// All functions are expressed over the mesh topology. Routing is minimal
// throughout: every hop reduces the Manhattan distance to the destination.
package routing

import (
	"fmt"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/topology"
)

// Algorithm selects the routing discipline for a simulation run.
type Algorithm uint8

const (
	// XY is deterministic dimension-order routing: fully in X, then in Y.
	XY Algorithm = iota
	// XYYX is oblivious routing: each packet picks X-first or Y-first with
	// equal probability at injection and follows it deterministically.
	XYYX
	// Adaptive is minimal adaptive routing: each hop may pick any
	// productive direction; deadlock freedom comes from an escape VC class
	// restricted to XY order (Duato's protocol).
	Adaptive
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case XY:
		return "XY"
	case XYYX:
		return "XY-YX"
	case Adaptive:
		return "Adaptive"
	default:
		return "?"
	}
}

// Algorithms lists all supported disciplines in evaluation order.
var Algorithms = [3]Algorithm{XY, XYYX, Adaptive}

// XDirection returns the productive X direction from cur toward dst, or
// Invalid when the X offset is zero.
func XDirection(cur, dst topology.Coord) topology.Direction {
	switch {
	case dst.X > cur.X:
		return topology.East
	case dst.X < cur.X:
		return topology.West
	default:
		return topology.Invalid
	}
}

// YDirection returns the productive Y direction from cur toward dst, or
// Invalid when the Y offset is zero.
func YDirection(cur, dst topology.Coord) topology.Direction {
	switch {
	case dst.Y > cur.Y:
		return topology.North
	case dst.Y < cur.Y:
		return topology.South
	default:
		return topology.Invalid
	}
}

// DimensionOrder returns the output port dimension-order routing takes at
// cur for a packet headed to dst. mode selects X-first or Y-first;
// ModeAdaptive packets follow X-first here because DimensionOrder is their
// escape discipline. Returns Local at the destination.
func DimensionOrder(cur, dst topology.Coord, mode flit.RouteMode) topology.Direction {
	if cur == dst {
		return topology.Local
	}
	first, second := XDirection(cur, dst), YDirection(cur, dst)
	if mode == flit.YFirst {
		first, second = second, first
	}
	if first != topology.Invalid {
		return first
	}
	return second
}

// OddEvenDirs returns the minimal productive directions permitted by
// Chiu's odd-even turn model for a packet injected at src, currently at
// cur, headed to dst. The turn model forbids East-North and East-South
// turns in even columns and North-West and South-West turns in odd
// columns, which makes minimal adaptive routing deadlock-free on a mesh
// with any number of virtual channels per link — the discipline this
// reproduction uses for the paper's "minimal adaptive routing" (see
// DESIGN.md for the rationale).
func OddEvenDirs(src, cur, dst topology.Coord) []topology.Direction {
	if cur == dst {
		return nil
	}
	ex, ey := dst.X-cur.X, dst.Y-cur.Y
	yDir := topology.North
	if ey < 0 {
		yDir = topology.South
	}
	if ex == 0 {
		return []topology.Direction{yDir}
	}
	dirs := make([]topology.Direction, 0, 2)
	if ex > 0 {
		if ey == 0 {
			return []topology.Direction{topology.East}
		}
		if cur.X%2 == 1 || cur.X == src.X {
			dirs = append(dirs, yDir)
		}
		if dst.X%2 == 1 || ex != 1 {
			dirs = append(dirs, topology.East)
		}
		return dirs
	}
	dirs = append(dirs, topology.West)
	if cur.X%2 == 0 && ey != 0 {
		dirs = append(dirs, yDir)
	}
	return dirs
}

// Quadrant identifies the destination quadrant relative to a router — the
// organizing principle of the Path-Sensitive router's path sets.
type Quadrant uint8

const (
	NE Quadrant = iota
	NW
	SE
	SW
)

// String names the quadrant.
func (q Quadrant) String() string {
	switch q {
	case NE:
		return "NE"
	case NW:
		return "NW"
	case SE:
		return "SE"
	case SW:
		return "SW"
	default:
		return "?"
	}
}

// Outputs returns the two output directions a quadrant path set is wired to
// in the decomposed 4x4 crossbar.
func (q Quadrant) Outputs() [2]topology.Direction {
	switch q {
	case NE:
		return [2]topology.Direction{topology.North, topology.East}
	case NW:
		return [2]topology.Direction{topology.North, topology.West}
	case SE:
		return [2]topology.Direction{topology.South, topology.East}
	default:
		return [2]topology.Direction{topology.South, topology.West}
	}
}

// PacketQuadrant returns the path set a packet travels in for its whole
// journey: the quadrant of its destination relative to its SOURCE. Every
// minimal move stays inside this quadrant, so the packet never changes
// sets, the four subnetworks are fully independent, and each is monotone
// (hence acyclic). Axis-aligned pairs, which could use either adjacent
// quadrant, are folded by destination parity so axis traffic spreads over
// both candidate sets instead of overloading one.
func PacketQuadrant(src, dst topology.Coord) Quadrant {
	east := dst.X > src.X
	west := dst.X < src.X
	north := dst.Y > src.Y
	south := dst.Y < src.Y
	even := (dst.X+dst.Y)%2 == 0
	switch {
	case north && east:
		return NE
	case north && west:
		return NW
	case south && east:
		return SE
	case south && west:
		return SW
	case north: // pure column, going north: NE or NW both work
		if even {
			return NE
		}
		return NW
	case south:
		if even {
			return SE
		}
		return SW
	case east: // pure row, going east
		if even {
			return NE
		}
		return SE
	case west:
		if even {
			return NW
		}
		return SW
	default:
		return NE // src == dst; callers never route these
	}
}

// InjectionMode draws the packet route mode appropriate for the algorithm:
// XFirst for XY, a fair coin between XFirst and YFirst for XY-YX, and
// ModeAdaptive for adaptive routing. coin supplies the randomness (used
// only for XY-YX).
func InjectionMode(alg Algorithm, coin func() bool) flit.RouteMode {
	switch alg {
	case XY:
		return flit.XFirst
	case XYYX:
		if coin() {
			return flit.XFirst
		}
		return flit.YFirst
	case Adaptive:
		return flit.ModeAdaptive
	default:
		panic(fmt.Sprintf("routing: unknown algorithm %d", alg))
	}
}

// Turn describes the dimension transition a flit makes at a router,
// which is what selects its RoCo VC class (dx, dy, txy, tyx, Inj*).
type Turn uint8

const (
	// ContinueX: arrived traveling in X, leaves in X (dx class).
	ContinueX Turn = iota
	// ContinueY: arrived traveling in Y, leaves in Y (dy class).
	ContinueY
	// TurnXY: arrived traveling in X, leaves in Y (txy class).
	TurnXY
	// TurnYX: arrived traveling in Y, leaves in X (tyx class).
	TurnYX
	// InjectX: injected by the local PE, leaves in X (Injxy class).
	InjectX
	// InjectY: injected by the local PE, leaves in Y (Injyx class).
	InjectY
	// Eject: leaves through the Local port (no VC class; early ejection).
	Eject
)

// NumClasses is the number of buffer-holding path-set classes (dx, dy,
// txy, tyx, Injxy, Injyx) — every Turn value except Eject, which names
// the bufferless early-ejection path. Telemetry indexes per-class VC
// occupancy arrays by Turn over [0, NumClasses).
const NumClasses = 6

// String names the turn using the paper's VC-class vocabulary.
func (t Turn) String() string {
	switch t {
	case ContinueX:
		return "dx"
	case ContinueY:
		return "dy"
	case TurnXY:
		return "txy"
	case TurnYX:
		return "tyx"
	case InjectX:
		return "Injxy"
	case InjectY:
		return "Injyx"
	case Eject:
		return "eject"
	default:
		return "?"
	}
}

// TurnOf classifies the transition of a flit that arrives from direction
// from (the port it enters on, i.e. the opposite of its travel direction;
// topology.Local for injected flits) and leaves through out.
func TurnOf(from, out topology.Direction) Turn {
	if out == topology.Local {
		return Eject
	}
	switch {
	case from == topology.Local && out.IsX():
		return InjectX
	case from == topology.Local && out.IsY():
		return InjectY
	case from.IsX() && out.IsX():
		return ContinueX
	case from.IsY() && out.IsY():
		return ContinueY
	case from.IsX() && out.IsY():
		return TurnXY
	case from.IsY() && out.IsX():
		return TurnYX
	default:
		panic(fmt.Sprintf("routing: impossible turn %s->%s", from, out))
	}
}

// TorusDirection returns the shortest-way direction for one dimension of
// a w-wide ring from cur to dst (Invalid when equal), preferring the
// positive direction on ties. pos/neg name the ring's two directions.
func torusRingDirection(cur, dst, size int, pos, neg topology.Direction) topology.Direction {
	if cur == dst {
		return topology.Invalid
	}
	forward := (dst - cur + size) % size // hops going positive
	if forward <= size-forward {
		return pos
	}
	return neg
}

// TorusDimensionOrder is dimension-order routing on a 2D torus: fully
// around the X ring (shortest way), then the Y ring. Only XFirst order is
// supported (the torus extension is generic-router XY only; see
// DESIGN.md).
func TorusDimensionOrder(width, height int, cur, dst topology.Coord) topology.Direction {
	if cur == dst {
		return topology.Local
	}
	if d := torusRingDirection(cur.X, dst.X, width, topology.East, topology.West); d != topology.Invalid {
		return d
	}
	return torusRingDirection(cur.Y, dst.Y, height, topology.North, topology.South)
}

// TorusHopWraps reports whether a hop from cur in direction d crosses the
// torus dateline of its dimension (the wrap edge between coordinate size-1
// and 0). Dateline crossings switch the packet onto the second VC class,
// which is what breaks the ring's channel-dependency cycle.
func TorusHopWraps(width, height int, cur topology.Coord, d topology.Direction) bool {
	switch d {
	case topology.East:
		return cur.X == width-1
	case topology.West:
		return cur.X == 0
	case topology.North:
		return cur.Y == height-1
	case topology.South:
		return cur.Y == 0
	default:
		return false
	}
}
