// Package arbiter implements the arbitration primitives the three router
// microarchitectures are built from: round-robin arbiters (the v:1 and P:1
// units of separable VA/SA stages) and the paper's Mirror allocator, which
// achieves maximal matching on a 2x2 crossbar with a single global 2:1
// arbiter per module.
package arbiter

import "math/bits"

// maskWidth is the widest request set a bitmap grant serves. Every arbiter
// in the simulator is far narrower (the widest is the generic router's
// 15-input VA arbiter).
const maskWidth = 64

// RoundRobin is an n-input round-robin arbiter. The input granted most
// recently gets the lowest priority in the next round, which provides
// strong fairness — the same discipline assumed by the paper's separable
// allocators. It is two bytes, held by value: a router embeds dozens of
// arbiters per node, and on big meshes boxing each one in its own heap
// object costs more than the state it guards.
type RoundRobin struct {
	n    uint8
	next uint8 // index with highest priority in the next round
}

// maxLines is the widest arbiter the two-byte layout can describe.
const maxLines = 255

// NewRoundRobin returns an arbiter over n request lines, as a value for
// the owner to embed.
func NewRoundRobin(n int) RoundRobin {
	if n < 1 || n > maxLines {
		panic("arbiter: round-robin needs 1 to 255 inputs")
	}
	return RoundRobin{n: uint8(n)}
}

// Size returns the number of request lines.
func (a *RoundRobin) Size() int { return int(a.n) }

// GrantMask returns the index of the winning request line in the bitmap
// req (bit i asserted means line i requests), or -1 when req is zero. The
// priority pointer advances past the winner. Requires n <= 64; bits at
// positions >= n must be zero.
//
// The winner is found without a scan: rotating req right by next moves the
// highest-priority line to bit 0, so the first asserted line in round-robin
// order is the rotated word's lowest set bit. The left-shift half of the
// rotation parks bits above position n-1; they are harmless, because when
// req is non-zero at least one real bit lands in [0, n) and TrailingZeros64
// finds it first. (Go defines shifts >= the word width as zero, so the
// next == 0 and n == 64 edges are safe.)
func (a *RoundRobin) GrantMask(req uint64) int {
	idx := a.peekMask(req)
	if idx >= 0 {
		a.next = uint8(idx) + 1
		if a.next == a.n {
			a.next = 0
		}
	}
	return idx
}

// PeekMask returns the index GrantMask would return without advancing the
// priority pointer, or -1 when req is zero. Requires n <= 64.
func (a *RoundRobin) PeekMask(req uint64) int {
	return a.peekMask(req)
}

// peekMask is the shared rotate-and-count core of GrantMask and PeekMask.
func (a *RoundRobin) peekMask(req uint64) int {
	if req == 0 {
		return -1
	}
	if a.n > maskWidth {
		panic("arbiter: bitmap grant on an arbiter wider than 64 lines")
	}
	next, n := int(a.next), int(a.n)
	r := (req >> uint(next)) | (req << uint(n-next))
	idx := next + bits.TrailingZeros64(r)
	if idx >= n {
		idx -= n
	}
	return idx
}

// MirrorDecision is the outcome of one Mirror-allocator round for a 2x2
// module: which input port drives which of the module's two output
// directions. -1 entries mean the corresponding output stays idle.
type MirrorDecision struct {
	// OutWinner[d] is the input port index (0 or 1) granted output
	// direction d (0 or 1), or -1 when that output is unmatched.
	OutWinner [2]int
}

// Mirror implements the paper's "Mirroring Effect" switch allocator for a
// 2x2 crossbar module. Each input port presents, per output direction, a
// locally arbitrated candidate (has[port][dir]). A single global 2:1
// arbiter decides the primary port's direction; the other port is granted
// the mirrored (opposite) direction, which by construction yields a maximal
// matching. The primary port alternates every round so neither port
// starves.
//
// Like RoundRobin it is held by value (three bytes, the global arbiter
// inline).
type Mirror struct {
	global  RoundRobin // 2:1 arbiter over the primary port's two directions
	primary uint8      // which input port the global decision is made at
}

// NewMirror returns a Mirror allocator for one 2x2 module, as a value for
// the owner to embed.
func NewMirror() Mirror {
	return Mirror{global: NewRoundRobin(2)}
}

// Allocate computes one allocation round. has[p][d] reports whether input
// port p holds a switch-ready flit for output direction d. The result is a
// maximal matching of the 2x2 module: if any complete (2-edge) matching
// exists among the requests, Allocate finds one.
func (m *Mirror) Allocate(has [2][2]bool) MirrorDecision {
	dec := MirrorDecision{OutWinner: [2]int{-1, -1}}
	p := int(m.primary)
	q := 1 - p

	// Global arbitration happens only at the primary port: pick its
	// direction among those it has candidates for, preferring a direction
	// whose mirror the other port can fill (that is what makes the matching
	// maximal rather than merely conflict-free).
	var reqs uint64
	if has[p][0] {
		reqs |= 1
	}
	if has[p][1] {
		reqs |= 2
	}
	// Prefer the direction that lets port q take the opposite output.
	pDir := -1
	if reqs == 3 {
		// Both directions available at the primary port: steer toward full
		// utilization when only one choice mirrors, otherwise round-robin.
		switch {
		case has[q][1] && !has[q][0]:
			pDir = 0
		case has[q][0] && !has[q][1]:
			pDir = 1
		default:
			pDir = m.global.GrantMask(reqs)
		}
	} else {
		pDir = m.global.GrantMask(reqs)
	}

	if pDir >= 0 {
		dec.OutWinner[pDir] = p
		// Mirroring Effect: the other port is granted the opposite
		// direction without a second global arbitration.
		if has[q][1-pDir] {
			dec.OutWinner[1-pDir] = q
		}
	} else {
		// Primary port idle: the secondary port may use either output.
		switch {
		case has[q][0] && has[q][1]:
			d := m.global.GrantMask(3)
			dec.OutWinner[d] = q
		case has[q][0]:
			dec.OutWinner[0] = q
		case has[q][1]:
			dec.OutWinner[1] = q
		}
	}

	m.primary = 1 - m.primary
	return dec
}

// SkipRounds replays the state effect of n request-free allocation rounds
// without running them. An idle round leaves the global arbiter untouched
// (no request wins) but still toggles the primary port, so skipping n
// rounds flips the primary iff n is odd. The activity-gated simulation
// kernel uses this to keep a slept RoCo module bit-identical to one ticked
// every cycle.
func (m *Mirror) SkipRounds(n int64) {
	if n%2 == 1 {
		m.primary = 1 - m.primary
	}
}
