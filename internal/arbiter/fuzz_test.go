package arbiter

import "testing"

// refRoundRobin is the legacy []bool arbiter: a linear scan from the
// priority pointer. GrantMask/PeekMask must agree with it on every width,
// request pattern, and pointer state — it is the spec the rotate +
// trailing-zeros fast path is checked against.
type refRoundRobin struct {
	n    int
	next int
}

func (a *refRoundRobin) peek(requests []bool) int {
	for i := 0; i < a.n; i++ {
		idx := (a.next + i) % a.n
		if requests[idx] {
			return idx
		}
	}
	return -1
}

func (a *refRoundRobin) grant(requests []bool) int {
	idx := a.peek(requests)
	if idx >= 0 {
		a.next = (idx + 1) % a.n
	}
	return idx
}

// unpack expands bitmap req into a width-n request slice.
func unpack(req uint64, n int) []bool {
	s := make([]bool, n)
	for i := 0; i < n; i++ {
		s[i] = req&(1<<uint(i)) != 0
	}
	return s
}

// FuzzGrantMask differentially checks the bitmap arbiter against the
// reference scan: same winners and priority pointers from GrantMask/PeekMask,
// across random widths (1..64), request patterns, and pointer states reached
// by running many rounds. Run `go test -fuzz=FuzzGrantMask
// ./internal/arbiter` to explore beyond the seed corpus; the seed corpus
// itself runs in `make check` under the race detector.
func FuzzGrantMask(f *testing.F) {
	f.Add(uint8(0), uint64(0))       // width 1, no requests
	f.Add(uint8(0), uint64(1))       // width 1, one request
	f.Add(uint8(63), ^uint64(0))     // width 64, all lines hot
	f.Add(uint8(63), uint64(1)<<63)  // width 64, only the top line
	f.Add(uint8(14), uint64(0x5555)) // width 15 (generic VA shape), alternating
	f.Add(uint8(2), uint64(5))       // width 3 (per-port VC shape)
	f.Add(uint8(1), uint64(2))       // width 2 (mirror global shape)
	f.Add(uint8(31), uint64(0xdeadbeef))

	f.Fuzz(func(t *testing.T, widthSeed uint8, pattern uint64) {
		n := int(widthSeed)%64 + 1
		fast := NewRoundRobin(n)
		ref := &refRoundRobin{n: n}

		// Evolve the request pattern with an xorshift so one fuzz input
		// exercises many (pattern, pointer) combinations; the pointer walks
		// to arbitrary positions as grants land.
		x := pattern | 1
		for round := 0; round < 128; round++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			req := x
			if round%4 == 0 {
				req = 0 // idle rounds: pointers must hold still
			}
			if n < 64 {
				req &= uint64(1)<<uint(n) - 1
			}
			slice := unpack(req, n)

			if got, want := fast.PeekMask(req), ref.peek(slice); got != want {
				t.Fatalf("n=%d round=%d req=%#x next=%d: PeekMask=%d ref.peek=%d", n, round, req, ref.next, got, want)
			}
			if gotG, wantG := fast.GrantMask(req), ref.grant(slice); gotG != wantG {
				t.Fatalf("n=%d round=%d req=%#x: grant fast=%d ref=%d", n, round, req, gotG, wantG)
			}
			if int(fast.next) != ref.next {
				t.Fatalf("n=%d round=%d req=%#x: pointer fast=%d ref=%d", n, round, req, fast.next, ref.next)
			}
		}
	})
}
