package router

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rocosim/roco/internal/snapshot"
)

// refBook is a slice-based credit book, the differential oracle for the
// packed OutVCBook: int depths and in-flight counters and an []int grant
// FIFO per channel. Besides the credit protocol's panics (underflow,
// overflow, a tail without a grant) it enforces the bounds the packed
// layout documents — grantees below 16, at most grantCap queued grants,
// depths of at most 127 — so both books must panic on the same step.
type refBook struct {
	depths, inflight []int
	order            [][]int
}

func newRefBook(n, depth int) *refBook {
	r := &refBook{depths: make([]int, n), inflight: make([]int, n), order: make([][]int, n)}
	for vc := range r.depths {
		r.setDepth(vc, depth)
	}
	return r
}

func (r *refBook) setDepth(vc, depth int) {
	if depth < 0 || depth > maxBookDepth {
		panic("ref: depth out of range")
	}
	r.depths[vc] = depth
}

func (r *refBook) enqueue(vc, grantee int) {
	if grantee < 0 || grantee > maxGrantee || len(r.order[vc]) == grantCap {
		panic("ref: grant does not fit")
	}
	r.order[vc] = append(r.order[vc], grantee)
}

func (r *refBook) mayStream(vc, grantee int) bool {
	return len(r.order[vc]) > 0 && r.order[vc][0] == grantee
}

func (r *refBook) credits(vc int) int {
	if c := r.depths[vc] - r.inflight[vc]; c > 0 {
		return c
	}
	return 0
}

func (r *refBook) cancel(vc, grantee int) bool {
	for i, g := range r.order[vc] {
		if g == grantee {
			r.order[vc] = append(r.order[vc][:i:i], r.order[vc][i+1:]...)
			return true
		}
	}
	return false
}

func (r *refBook) send(vc int, tail bool) {
	if r.credits(vc) <= 0 {
		panic("ref: credit underflow")
	}
	r.inflight[vc]++
	if tail {
		if len(r.order[vc]) == 0 {
			panic("ref: tail without a grant")
		}
		r.order[vc] = r.order[vc][1:]
	}
}

func (r *refBook) returnCredit(vc int) {
	if r.inflight[vc] <= 0 {
		panic("ref: credit overflow")
	}
	r.inflight[vc]--
}

func (r *refBook) freeSlots() int {
	total := 0
	for vc := range r.depths {
		total += r.credits(vc)
	}
	return total
}

func (r *refBook) aliveMask() uint64 {
	var m uint64
	for vc, d := range r.depths {
		if d > 0 {
			m |= 1 << uint(vc)
		}
	}
	return m
}

// save writes the canonical book stream: the packed book must produce the
// same bytes.
func (r *refBook) save(e *snapshot.Encoder) {
	e.Int(len(r.depths))
	for vc := range r.depths {
		e.Int(r.depths[vc])
		e.Int(r.inflight[vc])
		e.Int(len(r.order[vc]))
		for _, g := range r.order[vc] {
			e.Int(g)
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// frame seals an encoder's payload and opens a decoder over it.
func frame(t *testing.T, e *snapshot.Encoder) *snapshot.Decoder {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compareBooks checks every observable of the packed book against the
// reference.
func compareBooks(b *OutVCBook, r *refBook) error {
	if b.Size() != len(r.depths) {
		return fmt.Errorf("Size %d, ref %d", b.Size(), len(r.depths))
	}
	for vc := range r.depths {
		if got, want := b.QueuedGrants(vc), len(r.order[vc]); got != want {
			return fmt.Errorf("vc %d: QueuedGrants %d, ref %d", vc, got, want)
		}
		if got, want := b.Credits(vc), r.credits(vc); got != want {
			return fmt.Errorf("vc %d: Credits %d, ref %d", vc, got, want)
		}
		for g := 0; g <= maxGrantee; g++ {
			if got, want := b.MayStream(vc, g), r.mayStream(vc, g); got != want {
				return fmt.Errorf("vc %d: MayStream(%d) %v, ref %v", vc, g, got, want)
			}
		}
	}
	if got, want := b.FreeSlots(), r.freeSlots(); got != want {
		return fmt.Errorf("FreeSlots %d, ref %d", got, want)
	}
	if got, want := b.AliveMask(), r.aliveMask(); got != want {
		return fmt.Errorf("AliveMask %#x, ref %#x", got, want)
	}
	return nil
}

// FuzzOutVCBook differentially checks the packed credit book against the
// slice-based reference over random operation sequences: every
// observable must agree after every step, both must panic on the same
// step, and a State save/load round trip must write the reference's
// canonical bytes and restore an equal book. Each operation is three
// bytes (opcode, channel, argument). The committed seed corpus runs in
// `make check` under the race detector; explore further with
// `go test -fuzz=FuzzOutVCBook ./internal/router`.
func FuzzOutVCBook(f *testing.F) {
	const (
		opEnqueue = iota
		opCancel
		opSendBody
		opSendTail
		opReturn
		opSetDepth
		opRoundTrip
		numOps
	)
	ops := func(steps ...[3]byte) []byte {
		var out []byte
		for _, s := range steps {
			out = append(out, s[:]...)
		}
		return out
	}
	// One packet streams through a 5-deep channel and its credits return.
	f.Add(uint8(11), uint8(5), ops(
		[3]byte{opEnqueue, 0, 7}, [3]byte{opSendBody, 0, 0}, [3]byte{opSendTail, 0, 0},
		[3]byte{opRoundTrip, 0, 0}, [3]byte{opReturn, 0, 0}, [3]byte{opReturn, 0, 0}))
	// Back-to-back grants, the middle one cancelled, then a live depth cut
	// below the occupancy.
	f.Add(uint8(2), uint8(4), ops(
		[3]byte{opEnqueue, 1, 3}, [3]byte{opEnqueue, 1, 9}, [3]byte{opEnqueue, 1, 15},
		[3]byte{opCancel, 1, 9}, [3]byte{opSendBody, 1, 0}, [3]byte{opSendBody, 1, 0},
		[3]byte{opSetDepth, 1, 1}, [3]byte{opRoundTrip, 0, 0}, [3]byte{opSendTail, 1, 0}))
	// Credit underflow on a 1-deep channel: both books panic.
	f.Add(uint8(0), uint8(1), ops(
		[3]byte{opEnqueue, 0, 0}, [3]byte{opSendBody, 0, 0}, [3]byte{opSendBody, 0, 0}))
	// Credit overflow: a credit returns that was never consumed.
	f.Add(uint8(5), uint8(3), ops([3]byte{opReturn, 2, 0}))
	// A grantee past the 4-bit slot.
	f.Add(uint8(3), uint8(2), ops([3]byte{opEnqueue, 0, 16}))

	f.Fuzz(func(t *testing.T, nSeed, depthSeed uint8, prog []byte) {
		n := int(nSeed)%maxInputVCs + 1
		depth := int(depthSeed) % (maxBookDepth + 1)
		b, r := NewOutVCBook(n, depth), newRefBook(n, depth)
		for step := 0; step+3 <= len(prog); step += 3 {
			op, vc, arg := int(prog[step])%numOps, int(prog[step+1])%n, int(prog[step+2])
			var got, want bool
			var bp, rp bool
			switch op {
			case opEnqueue:
				g := arg % (maxGrantee + 3) // a few grantees past the slot
				bp, rp = panics(func() { b.EnqueueGrant(vc, g) }), panics(func() { r.enqueue(vc, g) })
			case opCancel:
				g := arg % (maxGrantee + 1)
				got, want = b.CancelGrant(vc, g), r.cancel(vc, g)
			case opSendBody, opSendTail:
				tail := op == opSendTail
				bp, rp = panics(func() { b.Send(vc, tail) }), panics(func() { r.send(vc, tail) })
			case opReturn:
				bp, rp = panics(func() { b.ReturnCredit(vc) }), panics(func() { r.returnCredit(vc) })
			case opSetDepth:
				d := arg % (maxBookDepth + 9) // a few depths past int8
				bp, rp = panics(func() { b.SetDepth(vc, d) }), panics(func() { r.setDepth(vc, d) })
			case opRoundTrip:
				e, re := snapshot.NewEncoder(), snapshot.NewEncoder()
				b.State(e.Stream())
				r.save(re)
				var eb, rb bytes.Buffer
				e.WriteTo(&eb)
				re.WriteTo(&rb)
				if !bytes.Equal(eb.Bytes(), rb.Bytes()) {
					t.Fatalf("step %d: saving State is not the canonical stream", step/3)
				}
				loaded := NewOutVCBook(n, 0)
				d := frame(t, e)
				loaded.State(d.Stream())
				if err := d.Finish(); err != nil {
					t.Fatalf("step %d: reloading a saved book: %v", step/3, err)
				}
				b = loaded
			}
			if bp != rp {
				t.Fatalf("step %d (op %d, vc %d, arg %d): packed book panicked %v, reference %v", step/3, op, vc, arg, bp, rp)
			}
			if bp {
				return // both refused the step; the sequence ends like a simulator bug would
			}
			if got != want {
				t.Fatalf("step %d: CancelGrant %v, reference %v", step/3, got, want)
			}
			if err := compareBooks(b, r); err != nil {
				t.Fatalf("step %d (op %d, vc %d, arg %d): %v", step/3, op, vc, arg, err)
			}
		}
	})
}
