// Activity-gated kernel: the software analog of the paper's clock gating,
// and the default kernel of Network.Step. Only routers in the active set
// tick; a ticked router that ends the cycle idle falls out of the set,
// and sleepers are woken by staged link/credit traffic, accepted
// injections, retransmission launches and fault installation. Only pipes
// with staged traffic advance, and per-cycle work follows the traffic:
// nothing scans the idle routers, the idle links or the PEs without a
// backlog.
//
// The active sets are uint64 bitsets and channels are slab-allocated with
// lazy buffer backing. The per-color tick scan is a word-wise sweep of
// activeBits∧colorMask. Right after each tick the shard worker notes the
// router's Idle(), which reads the busy mask its channels keep in
// router.AllocState (one word compare, no per-channel walk), and its
// write mask (Router.TakeWrites): the link halves the tick wrote, a flit
// onto an output or credits back over an input. The wake scan reads
// only those notes: it keeps busy routers active, advances each written
// link once, and wakes each written half's reader.
//
// The reference kernel runs the same Network.Step through the same sweep
// with these mechanisms switched off (Step lists its switches), so it is
// their oracle. Bit-identity with it holds because a skipped tick is a
// pure no-op except for the effects Router.SkipCycles replays at wake-up:
//
//   - The tick order is shared: both kernels sweep the same color
//     bitsets in ascending id order; the reference's active set is full.
//   - The sleep decision is exact: Idle() is "all channels dormant", and
//     every channel queue/states mutation updates its busy bit inline
//     (router.VC.syncAlloc); the auditor recomputes the mask from the
//     channels.
//   - The advance set is exact: pipes are written only inside router
//     ticks, at three chassis sites that each set their half's mask bit,
//     so the halves written this cycle are exactly the staged ones — the
//     pipes the reference kernel's advance changes. Both halves of a
//     written link advance together, as there. The auditor checks that no
//     pipe holds a staged half at a cycle boundary.
//   - Wakes cover every cycle that would do work: a router with staged
//     input, returned credits, an accepted injection or a fault strike is
//     in the active set for the cycle that consumes it.
//
// Sharding is a parameter of the kernel, not a variant: shards are
// contiguous id ranges, and each (color, shard) cell sweeps only its
// slice of the bitset and notes into its own list (see parallel.go).
// Snapshots stay kernel-canonical: the busy and write masks are derived,
// never serialized, and each channel's LoadState rebuilds its busy bit
// (see snapshot.go).
package network

import (
	"math/bits"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
)

// initKernel builds the cycle loop's state after the mesh is wired and
// the schedule built: the per-shard flit pools and tick-note lists, the
// settle clock, the activity and advance bitsets, the shard id ranges,
// and the per-node table of written halves.
func (n *Network) initKernel(nodes int) {
	// Reference switch: no pools, so flits are freshly allocated and the
	// graveyard stays empty (checks recycling).
	if !n.cfg.ReferenceKernel {
		n.pools = make([]*flit.Pool, n.shards)
		for i := range n.pools {
			n.pools[i] = &flit.Pool{}
		}
	}
	n.shardNotes = make([][]tickNote, n.shards)
	n.lastRun = make([]int64, nodes)
	for id := range n.lastRun {
		n.lastRun[id] = -1
	}

	n.activeBits = router.NewBitset(nodes)
	n.nextActiveBits = router.NewBitset(nodes)
	n.advancing = router.NewBitset(len(n.conns))
	// Reference switch: the active set is full from construction and never
	// swapped, so every router ticks every cycle (checks sleep and wake).
	if n.cfg.ReferenceKernel {
		n.activeBits.SetFirst(nodes)
	}

	// halves[id*8+b] is the link behind bit b of router id's write mask
	// and the router that reads the half: a flit half's downstream end, a
	// credit half's upstream end.
	n.halves = make([]half, nodes*8)
	for i, l := range n.links {
		n.halves[l.up*8+int(l.out)] = half{conn: int32(i), reader: int32(l.down)}
		n.halves[l.down*8+router.CreditHalf+int(l.out.Opposite())] = half{conn: int32(i), reader: int32(l.up)}
	}

	// Shards are contiguous ascending-id ranges: shard s holds the ids in
	// [shardLo[s], shardLo[s+1]).
	n.shardLo = make([]int, n.shards+1)
	n.shardLo[n.shards] = nodes
	for v := nodes - 1; v >= 0; v-- {
		n.shardLo[n.shardOf[v]] = v
	}
}

// wakeScan is the gated kernel's link phase. It reads the notes the shard
// workers took after each tick: a busy router stays active, and each link
// half a router wrote wakes the half's reader for next cycle (a flit the
// downstream node, credits the upstream one) and lists its link, once,
// for the advance. The order is immaterial (bit sets, independent pipe
// advances) but deterministic: shard-major. It then advances the listed
// links and the multi-cycle D2D pipes, and swaps the active sets.
func (n *Network) wakeScan() {
	for s := range n.shardNotes {
		notes := n.shardNotes[s]
		for _, nt := range notes {
			if nt.busy {
				n.nextActiveBits.Set(int(nt.id))
			}
			for m := nt.wrote; m != 0; m &= m - 1 {
				h := n.halves[int(nt.id)*8+bits.TrailingZeros8(uint8(m))]
				c := int(h.conn)
				if n.isLong != nil && n.isLong[c] {
					// Multi-cycle D2D pipe: staged traffic moves it onto the
					// persistent advance list instead of the one-shot path;
					// the long pass below wakes the readers when traffic
					// actually lands.
					if !n.longOn[c] {
						n.longOn[c] = true
						n.longActive = append(n.longActive, c)
					}
					continue
				}
				n.nextActiveBits.Set(int(h.reader))
				if !n.advancing.Has(c) {
					n.advancing.Set(c)
					n.advance = append(n.advance, c)
				}
			}
		}
		n.shardNotes[s] = notes[:0]
	}
	for _, c := range n.advance {
		n.conns[c].Advance()
		n.advancing.Clear(c)
	}
	n.advance = n.advance[:0]
	n.advanceLongConns()

	// Active-set swap: two word-wise array passes.
	n.activeBits.CopyFrom(n.nextActiveBits)
	n.nextActiveBits.ClearAll()
}

// advanceLongConns steps every multi-cycle D2D pipe with traffic in
// transit, waking the reader halves for the next cycle whenever a flit or
// credit lands. A pipe leaves the list only when quiescent, so
// gap-recovering serializers and mid-transit flits keep advancing even
// while both endpoint routers sleep. No-op on single-die topologies.
func (n *Network) advanceLongConns() {
	if len(n.longActive) == 0 {
		return
	}
	w := 0
	for _, c := range n.longActive {
		conn := &n.conns[c]
		conn.Advance()
		if conn.Flit.Readable() {
			n.nextActiveBits.Set(n.links[c].down)
		}
		if conn.Credit.Readable() {
			n.nextActiveBits.Set(n.links[c].up)
		}
		if conn.Quiescent() {
			n.longOn[c] = false
		} else {
			n.longActive[w] = c
			w++
		}
	}
	n.longActive = n.longActive[:w]
}

// tickShard ticks the active routers of one (color, shard) cell by
// sweeping the words of activeBits∧colorMask clipped to the shard's
// contiguous id range, settling each router's skipped cycles first. Right
// after each tick, while the router is still in cache, it notes for the
// wake scan whether the router stays busy and which link halves it wrote;
// a router that is idle and wrote nothing leaves no note. Set bits come
// out in ascending id order, the canonical schedule's order. activeBits
// is read-only during the tick phases (wakes for the next cycle go to
// nextActiveBits on the coordinator), so concurrent shard sweeps of one
// color never race.
func (n *Network) tickShard(c, s int, t int64) {
	lo, hi := n.shardLo[s], n.shardLo[s+1]
	if lo >= hi {
		return
	}
	mask := n.colorMask[c]
	act := n.activeBits
	notes := n.shardNotes[s]
	loW, hiW := lo>>6, (hi-1)>>6
	for w := loW; w <= hiW; w++ {
		word := act[w] & mask[w]
		if w == loW {
			word &^= (1 << uint(lo&63)) - 1
		}
		if w == hiW {
			if rem := hi & 63; rem != 0 {
				word &= (1 << uint(rem)) - 1
			}
		}
		for word != 0 {
			id := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			r := n.routers[id]
			n.settleTo(id, t-1)
			r.Tick(t)
			n.lastRun[id] = t
			if busy, wrote := !r.Idle(), r.TakeWrites(); busy || wrote != 0 {
				notes = append(notes, tickNote{id: int32(id), wrote: wrote, busy: busy})
			}
		}
	}
	n.shardNotes[s] = notes
}

// tickNote is what the wake scan needs of one ticked router: whether it
// stays busy, and the link halves its tick wrote.
type tickNote struct {
	id    int32
	wrote router.WriteMask
	busy  bool
}

// half is the link behind one bit of a router's write mask, and the
// router that reads what the write staged.
type half struct{ conn, reader int32 }

// settleTo replays router id's skipped idle cycles through upTo, so its
// activity counters and tick-invariant arbitration state match a router
// that was ticked every cycle.
func (n *Network) settleTo(id int, upTo int64) {
	if gap := upTo - n.lastRun[id]; gap > 0 {
		n.routers[id].SkipCycles(gap)
		n.lastRun[id] = upTo
	}
}
