package arbiter

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinGrantsAssertedLine(t *testing.T) {
	a := NewRoundRobin(4)
	const reqs = 0b1010 // lines 1 and 3
	for i := 0; i < 16; i++ {
		w := a.GrantMask(reqs)
		if w != 1 && w != 3 {
			t.Fatalf("granted unasserted line %d", w)
		}
	}
}

func TestRoundRobinNoRequest(t *testing.T) {
	a := NewRoundRobin(3)
	if w := a.GrantMask(0); w != -1 {
		t.Fatalf("empty request vector granted %d", w)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	a := NewRoundRobin(4)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[a.GrantMask(0b1111)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("line %d granted %d/400 times under full load; round-robin should be exact", i, c)
		}
	}
}

func TestRoundRobinNoStarvation(t *testing.T) {
	// A persistently asserted line must be granted within n rounds no
	// matter what the other lines do.
	f := func(pattern []uint8) bool {
		a := NewRoundRobin(5)
		waiting := 0
		for i := 0; i < len(pattern); i++ {
			reqs := uint64(pattern[i]&0b1111) | 1<<4 // line 4 is ours
			if a.GrantMask(reqs) == 4 {
				waiting = 0
			} else {
				waiting++
				if waiting >= 5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundRobinPeekDoesNotAdvance(t *testing.T) {
	a := NewRoundRobin(3)
	p := a.PeekMask(0b111)
	if g := a.GrantMask(0b111); g != p {
		t.Errorf("PeekMask %d then GrantMask %d", p, g)
	}
}

func TestRoundRobinSizeMismatchPanics(t *testing.T) {
	// A bitmap grant cannot address more than 64 lines.
	a := NewRoundRobin(maskWidth + 1)
	defer func() {
		if recover() == nil {
			t.Error("bitmap grant on a 65-line arbiter should panic")
		}
	}()
	a.GrantMask(1)
}

// allPatterns enumerates every 2x2 request matrix.
func allPatterns() [][2][2]bool {
	var out [][2][2]bool
	for m := 0; m < 16; m++ {
		var has [2][2]bool
		has[0][0] = m&1 != 0
		has[0][1] = m&2 != 0
		has[1][0] = m&4 != 0
		has[1][1] = m&8 != 0
		out = append(out, has)
	}
	return out
}

// isMaximal reports whether dec is a maximal matching for the request
// pattern has: no unmatched output could be matched to an unmatched input
// that requests it.
func isMaximal(dec MirrorDecision, has [2][2]bool) bool {
	used := [2]bool{}
	for d := 0; d < 2; d++ {
		if w := dec.OutWinner[d]; w >= 0 {
			if !has[w][d] {
				return false // granted a non-existent request
			}
			if used[w] {
				return false // one port granted two outputs
			}
			used[w] = true
		}
	}
	for d := 0; d < 2; d++ {
		if dec.OutWinner[d] != -1 {
			continue
		}
		for p := 0; p < 2; p++ {
			if has[p][d] && !used[p] {
				return false // an augmenting edge was left on the table
			}
		}
	}
	return true
}

func TestMirrorAlwaysMaximal(t *testing.T) {
	// The Mirroring Effect's whole point: the decision is a maximal
	// matching for every request pattern, at every point of the arbiter's
	// internal rotation.
	for _, has := range allPatterns() {
		m := NewMirror()
		for round := 0; round < 8; round++ {
			dec := m.Allocate(has)
			if !isMaximal(dec, has) {
				t.Fatalf("round %d: decision %v not maximal for %v", round, dec, has)
			}
		}
	}
}

func TestMirrorFullMatchingWhenPossible(t *testing.T) {
	// Whenever a perfect 2-edge matching exists, the mirror finds it.
	for _, has := range allPatterns() {
		perfect := (has[0][0] && has[1][1]) || (has[0][1] && has[1][0])
		if !perfect {
			continue
		}
		m := NewMirror()
		for round := 0; round < 8; round++ {
			dec := m.Allocate(has)
			if dec.OutWinner[0] < 0 || dec.OutWinner[1] < 0 {
				t.Fatalf("perfect matching exists for %v but got %v", has, dec)
			}
		}
	}
}

func TestMirrorFairnessUnderConflict(t *testing.T) {
	// Both ports want only direction 0: grants must alternate.
	m := NewMirror()
	has := [2][2]bool{{true, false}, {true, false}}
	counts := [2]int{}
	for i := 0; i < 100; i++ {
		dec := m.Allocate(has)
		if dec.OutWinner[0] < 0 {
			t.Fatal("output 0 must be granted")
		}
		if dec.OutWinner[1] != -1 {
			t.Fatal("output 1 has no requests")
		}
		counts[dec.OutWinner[0]]++
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Errorf("conflicting ports granted %v, want 50/50", counts)
	}
}

func TestMirrorDecisionValidity(t *testing.T) {
	f := func(bits uint8, rounds uint8) bool {
		var has [2][2]bool
		has[0][0] = bits&1 != 0
		has[0][1] = bits&2 != 0
		has[1][0] = bits&4 != 0
		has[1][1] = bits&8 != 0
		m := NewMirror()
		for i := 0; i < int(rounds%16)+1; i++ {
			dec := m.Allocate(has)
			// Never grant a non-request; never give one port two outputs.
			if dec.OutWinner[0] >= 0 && !has[dec.OutWinner[0]][0] {
				return false
			}
			if dec.OutWinner[1] >= 0 && !has[dec.OutWinner[1]][1] {
				return false
			}
			if dec.OutWinner[0] >= 0 && dec.OutWinner[0] == dec.OutWinner[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
