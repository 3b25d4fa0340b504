// Package core implements the paper's contribution: the RoCo (Row-Column)
// Decoupled Router. The router is split into two fully independent modules
// — a Row-Module switching East/West traffic and a Column-Module switching
// North/South traffic — each with a compact 2x2 crossbar, its own VA and a
// Mirroring-Effect switch allocator. Arriving flits are steered by Guided
// Flit Queuing into path-set VCs named after their dimension transition
// (dx, dy, txy, tyx, Injxy, Injyx; paper Table 1), flits for the local PE
// are ejected early without touching the crossbar, and permanent faults are
// absorbed per component by the Hardware Recycling schemes of Section 4.
//
// # Deadlock discipline
//
// Every non-injection channel is assigned one outgoing direction, matching
// the paper's path-set orientation (path set 1 serves the figure's first
// output, path set 2 the second). With direction-assigned channels the
// class structure maps one-to-one onto per-link virtual channels, so:
//
//   - XY routing is deadlock-free outright (dimension order is acyclic);
//   - XY-YX routing is deadlock-free because Y-first packets ride the tyx
//     channels for their entire X leg, splitting traffic into two disjoint
//     acyclic subnetworks (Injxy->dx->txy->dy and Injyx->dy->tyx), which is
//     what the paper's "two additional dx VCs" buy;
//   - adaptive routing uses the odd-even turn model, deadlock-free on a
//     mesh with any per-link VC count (the paper sketches Duato-style
//     escape VCs instead; the odd-even model provides the same guarantee
//     within Table 1's channel budget — see DESIGN.md).
package core

import (
	"fmt"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

const (
	// VCsPerSet is the number of VCs in one path set (one crossbar input
	// port of one module).
	VCsPerSet = 3
	// BufferDepth is the per-VC depth in flits: 4 path sets x 3 VCs x 5
	// flits = 60 flits per router, matching the generic baseline's total.
	BufferDepth = 5
	// NumVCs is the router-wide VC count (and the namespace upstream
	// routers address flit.VC in).
	NumVCs = 12
)

// Module indexes the two independent halves of the router.
type Module uint8

const (
	// Row is the East/West module.
	Row Module = iota
	// Col is the North/South module.
	Col
	numModules
)

// String names the module.
func (m Module) String() string {
	if m == Row {
		return "row"
	}
	return "column"
}

// ModuleOf returns the module that owns output direction d.
func ModuleOf(d topology.Direction) Module {
	if d.IsX() {
		return Row
	}
	return Col
}

// Outputs returns the module's two output directions, indexed by the local
// direction slot used in switch allocation.
func (m Module) Outputs() [2]topology.Direction {
	if m == Row {
		return [2]topology.Direction{topology.East, topology.West}
	}
	return [2]topology.Direction{topology.North, topology.South}
}

// DirSlot returns the module-local output slot (0 or 1) of direction d.
func DirSlot(d topology.Direction) int {
	switch d {
	case topology.East, topology.North:
		return 0
	case topology.West, topology.South:
		return 1
	default:
		panic(fmt.Sprintf("core: direction %s has no module slot", d))
	}
}

// VC id layout: ids 0-5 belong to the Row-Module (path set 1 then path set
// 2), ids 6-11 to the Column-Module.
//
//	Row  P1: 0 1 2    Row  P2: 3 4 5
//	Col  P1: 6 7 8    Col  P2: 9 10 11

// ModuleOfVC returns the module owning VC id.
func ModuleOfVC(id int) Module {
	if id < VCsPerSet*2 {
		return Row
	}
	return Col
}

// VCConfig is one row of the paper's Table 1: the path-set class of each of
// the 12 VCs plus its direction assignment.
type VCConfig struct {
	Algorithm routing.Algorithm
	// Class is the paper's VC label (dx, dy, txy, tyx, Injxy, Injyx per
	// routing.Turn) for each VC id.
	Class [NumVCs]routing.Turn
	// Dir is the outgoing direction the channel serves. Injection channels
	// keep topology.Invalid (they serve either direction of their module;
	// source channels cannot participate in dependency cycles).
	Dir [NumVCs]topology.Direction

	// admit holds the admissible channels as bitmaps: admit[class][nextOut]
	// has bit id set iff Class[id] == class and the channel's direction
	// assignment allows nextOut. Class and Dir are fixed at configuration
	// time, so VA candidate selection reduces to one table load ANDed with
	// the live claimable/alive masks. Built by ConfigFor.
	admit [routing.NumClasses][int(topology.Local) + 1]uint64
}

// AdmitMask returns the channels that may hold a packet of the given mode
// making the given transition toward nextOut, as a bitmap. nextOut must be
// cardinal.
func (c *VCConfig) AdmitMask(turn routing.Turn, mode flit.RouteMode, nextOut topology.Direction) uint64 {
	return c.admit[c.ClassFor(turn, mode)][nextOut]
}

// ConfigFor returns the Table 1 configuration for a routing algorithm.
func ConfigFor(alg routing.Algorithm) VCConfig {
	cfg := VCConfig{Algorithm: alg}
	for i := range cfg.Dir {
		cfg.Dir[i] = topology.Invalid
	}
	set := func(t routing.Turn, pairs ...any) {
		for i := 0; i < len(pairs); i += 2 {
			id := pairs[i].(int)
			cfg.Class[id] = t
			cfg.Dir[id] = pairs[i+1].(topology.Direction)
		}
	}
	const (
		n, e, s, w = topology.North, topology.East, topology.South, topology.West
		inv        = topology.Invalid
	)
	switch alg {
	case routing.XY:
		// Row P1: dx dx Injxy | Row P2: dx dx Injxy
		// Col P1: dy txy Injyx | Col P2: dy dy txy
		// XY routing needs 8 VCs; the spares are reassigned to the
		// asymmetrically loaded classes (extra dx for Head-of-Line relief
		// in the X dimension, a second Injxy for the dominant injection
		// path), per Section 3.1. Turn channels (txy) never chain along a
		// dimension, so they serve either output of their module.
		set(routing.ContinueX, 0, w, 1, w, 3, e, 4, e)
		set(routing.InjectX, 2, inv, 5, inv)
		set(routing.ContinueY, 6, s, 9, n, 10, s)
		set(routing.TurnXY, 7, inv, 11, inv)
		set(routing.InjectY, 8, inv)
	case routing.XYYX:
		// Row P1: dx tyx Injxy | Row P2: dx dx tyx
		// Col P1: dy txy Injyx | Col P2: dy dy txy
		// tyx channels carry Y-first packets for their whole X leg, so
		// they chain and need the direction split; txy channels do not.
		set(routing.ContinueX, 0, w, 3, e, 4, e)
		set(routing.TurnYX, 1, w, 5, e)
		set(routing.InjectX, 2, inv)
		set(routing.ContinueY, 6, s, 9, n, 10, s)
		set(routing.TurnXY, 7, inv, 11, inv)
		set(routing.InjectY, 8, inv)
	case routing.Adaptive:
		// Row P1: dx tyx Injxy | Row P2: dx dx tyx
		// Col P1: dy txy Injyx | Col P2: dy txy txy
		// Under the odd-even turn model neither turn class chains (a
		// turned packet continues in dx/dy), so both serve either output.
		set(routing.ContinueX, 0, w, 3, e, 4, w)
		set(routing.TurnYX, 1, inv, 5, inv)
		set(routing.InjectX, 2, inv)
		set(routing.ContinueY, 6, s, 9, n)
		set(routing.TurnXY, 7, inv, 10, inv, 11, inv)
		set(routing.InjectY, 8, inv)
	default:
		panic(fmt.Sprintf("core: unknown algorithm %v", alg))
	}
	for id := 0; id < NumVCs; id++ {
		for _, d := range topology.CardinalDirections {
			if cfg.Dir[id] == topology.Invalid || cfg.Dir[id] == d {
				cfg.admit[cfg.Class[id]][d] |= 1 << uint(id)
			}
		}
	}
	return cfg
}

// tables holds every routing algorithm's Table 1 row, indexed by the
// algorithm. Routers point into it instead of copying the row, so a run
// keeps one copy per algorithm rather than one per node; nothing writes
// to it after initialisation.
var tables = func() (t [len(routing.Algorithms)]VCConfig) {
	for _, alg := range routing.Algorithms {
		t[alg] = ConfigFor(alg)
	}
	return t
}()

// ClassFor maps the dimension transition of a packet to the channel class
// it must occupy. Under XY-YX routing, Y-first packets ride tyx-class
// channels for their whole X leg (they "switched from Y to X"), keeping the
// two oblivious subnetworks disjoint and acyclic.
func (c *VCConfig) ClassFor(turn routing.Turn, mode flit.RouteMode) routing.Turn {
	if c.Algorithm == routing.XYYX && mode == flit.YFirst && turn == routing.ContinueX {
		return routing.TurnYX
	}
	return turn
}

// MinimumVCs returns the number of VCs strictly required for correct
// deadlock-free operation of the algorithm (paper Section 3.1: XY needs 8;
// XY-YX needs 10; adaptive needs 12).
func MinimumVCs(alg routing.Algorithm) int {
	switch alg {
	case routing.XY:
		return 8
	case routing.XYYX:
		return 10
	default:
		return 12
	}
}
