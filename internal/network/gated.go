// Activity-gated kernel: the software analog of the paper's clock gating,
// and the default cycle loop. Only routers in the active set tick; a
// ticked router that ends the cycle idle falls out of the set, and
// sleepers are woken by staged link/credit traffic, accepted injections,
// retransmission launches and fault installation. Only pipes with staged
// traffic advance.
//
// The active sets are uint64 bitsets and channels are slab-allocated with
// lazy buffer backing. The per-color tick scan is a word-wise sweep of
// activeBits∧colorMask, and the post-tick wake scan asks each ticked
// router Idle(), which reads the busy mask its channels keep in
// router.AllocState: one word compare, no per-channel walk.
//
// Bit-identity with the reference kernel (stepReference) holds because a
// skipped tick is a pure no-op except for the effects Router.SkipCycles
// replays at wake-up:
//
//   - The tick order is canonical: within a color phase the bitset sweep
//     visits ids ascending, which is precisely the order sched[c][s]
//     lists them in.
//   - The sleep decision is exact: Idle() is "all channels dormant", and
//     every channel queue/states mutation updates its busy bit inline
//     (router.VC.syncAlloc); the auditor recomputes the mask from the
//     channels.
//   - Wakes cover every cycle that would do work: a router with staged
//     input, returned credits, an accepted injection or a fault strike is
//     in the active set for the cycle that consumes it.
//
// Sharding is a parameter of the kernel, not a variant: shards are
// contiguous id ranges, and each (color, shard) cell sweeps only its
// slice of the bitset (see parallel.go). Snapshots stay kernel-canonical:
// the busy mask is derived, never serialized, and each channel's
// LoadState rebuilds its bit (see snapshot.go).
package network

import (
	"math/bits"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
)

// initGated builds the gated kernel's state after the mesh is wired and
// the schedule built: the per-shard flit pools and scratch lists, the
// settle and conn-mark clocks, the activity bitsets, the per-color
// schedule masks, the shard id ranges, and the CSR adjacency.
func (n *Network) initGated(nodes int) {
	n.pools = make([]*flit.Pool, n.shards)
	for i := range n.pools {
		n.pools[i] = &flit.Pool{}
	}
	n.shardTicked = make([][]int, n.shards)
	n.lastRun = make([]int64, nodes)
	for id := range n.lastRun {
		n.lastRun[id] = -1
	}
	n.connMark = make([]int64, len(n.conns))
	for i := range n.connMark {
		n.connMark[i] = -1
	}

	n.activeBits = router.NewBitset(nodes)
	n.nextActiveBits = router.NewBitset(nodes)

	// CSR adjacency: conn indexes touching each node, in ascending conn
	// index order, flattened into two arrays.
	n.adjOff = make([]int32, nodes+1)
	for _, l := range n.links {
		n.adjOff[l.up+1]++
		n.adjOff[l.down+1]++
	}
	for id := 0; id < nodes; id++ {
		n.adjOff[id+1] += n.adjOff[id]
	}
	n.adjList = make([]int32, n.adjOff[nodes])
	fill := make([]int32, nodes)
	copy(fill, n.adjOff[:nodes])
	for i, l := range n.links {
		n.adjList[fill[l.up]] = int32(i)
		fill[l.up]++
		n.adjList[fill[l.down]] = int32(i)
		fill[l.down]++
	}

	// colorMask[c] holds every router of color c; shards are contiguous
	// ascending-id ranges, so masking a color against [shardLo[s],
	// shardLo[s+1]) reproduces sched[c][s] exactly.
	n.colorMask = make([]router.Bitset, len(n.sched))
	for c := range n.sched {
		m := router.NewBitset(nodes)
		for s := range n.sched[c] {
			for _, id := range n.sched[c][s] {
				m.Set(id)
			}
		}
		n.colorMask[c] = m
	}
	n.shardLo = make([]int, n.shards+1)
	n.shardLo[n.shards] = nodes
	for v := nodes - 1; v >= 0; v-- {
		n.shardLo[n.shardOf[v]] = v
	}
}

// gatedKernel reports whether this network runs the activity-gated loop
// rather than the reference loop.
func (n *Network) gatedKernel() bool { return n.activeBits != nil }

// wakeNext marks router id active for the next cycle. No-op under the
// reference kernel.
func (n *Network) wakeNext(id int) {
	if n.nextActiveBits != nil {
		n.nextActiveBits.Set(id)
	}
}

// wakeNow marks router id active for the current cycle (fault
// installation wakes routers mid-Step, before the tick phases).
func (n *Network) wakeNow(id int) {
	if n.activeBits != nil {
		n.activeBits.Set(id)
	}
}

// stepActive is the activity-gated cycle loop: faults, generation,
// retransmission, color-phased ticks of the active routers, injection,
// the conn wake scan, the active-set swap, graveyard recycling, and the
// cycle close.
func (n *Network) stepActive() {
	n.installDueFaults()
	n.generate()
	n.retransmitDue()
	t := n.cycle

	n.tickColors(t)

	n.inject()

	// Wake scan: a ticked router stays active while any of its channels
	// is non-dormant (one mask read). All pipe staging happens
	// inside router ticks, so only conns touching a ticked router can
	// carry traffic: advance exactly those, and wake each half-channel's
	// reader so the staged content is consumed next cycle (a flit wakes
	// the downstream node, credits the upstream one). The scan runs
	// shard-major over the per-shard ticked lists; its order is immaterial
	// (bit sets, connMark dedup, independent pipe advances) but kept
	// deterministic anyway.
	for s := range n.shardTicked {
		ticked := n.shardTicked[s]
		for _, id := range ticked {
			if !n.routers[id].Idle() {
				n.nextActiveBits.Set(id)
			}
			for k := n.adjOff[id]; k < n.adjOff[id+1]; k++ {
				c := int(n.adjList[k])
				if n.connMark[c] == t {
					continue
				}
				conn := &n.conns[c]
				if n.isLong != nil && n.isLong[c] {
					// Multi-cycle D2D pipe: staged traffic moves it onto the
					// persistent advance list instead of the one-shot path;
					// the long pass below wakes the readers when traffic
					// actually lands.
					n.connMark[c] = t
					if !n.longOn[c] && !conn.Quiescent() {
						n.longOn[c] = true
						n.longActive = append(n.longActive, c)
					}
					continue
				}
				busy, pending := conn.Flit.Busy(), conn.Credit.Pending()
				if !busy && !pending {
					continue
				}
				n.connMark[c] = t
				n.advance = append(n.advance, c)
				if busy {
					n.nextActiveBits.Set(n.links[c].down)
				}
				if pending {
					n.nextActiveBits.Set(n.links[c].up)
				}
			}
		}
		n.shardTicked[s] = ticked[:0]
	}
	for _, c := range n.advance {
		n.conns[c].Advance()
	}
	n.advance = n.advance[:0]
	n.advanceLongConns()

	// Active-set swap: two word-wise array passes.
	n.activeBits.CopyFrom(n.nextActiveBits)
	n.nextActiveBits.ClearAll()

	// Recycle the flits that died this cycle into their source shard's
	// pool. Deferred to here because delivery and drop sinks run mid-cycle
	// while callers still hold (and in places read) the pointers.
	for i, f := range n.graveyard {
		n.pools[n.shardOf[f.Src]].Put(f)
		n.graveyard[i] = nil
	}
	n.graveyard = n.graveyard[:0]

	n.finishCycle()
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

// tickShardActive ticks the active routers of one (color, shard) cell by
// sweeping the words of activeBits∧colorMask clipped to the shard's
// contiguous id range, settling each router's skipped cycles first and
// logging it for the wake scan. Set bits come out in ascending id order —
// exactly the order sched[c][s] lists — so the tick sequence matches the
// reference kernel's bit for bit. activeBits is read-only during the tick
// phases (wakes for the next cycle go to nextActiveBits on the
// coordinator), so concurrent shard sweeps of one color never race.
func (n *Network) tickShardActive(c, s int, t int64) {
	lo, hi := n.shardLo[s], n.shardLo[s+1]
	if lo >= hi {
		return
	}
	mask := n.colorMask[c]
	act := n.activeBits
	ticked := n.shardTicked[s]
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
			n.settleTo(id, t-1)
			n.routers[id].Tick(t)
			n.lastRun[id] = t
			ticked = append(ticked, id)
		}
	}
	n.shardTicked[s] = ticked
}

// settleTo replays router id's skipped idle cycles through upTo, so its
// activity counters and tick-invariant arbitration state match a router
// that was ticked every cycle.
func (n *Network) settleTo(id int, upTo int64) {
	if gap := upTo - n.lastRun[id]; gap > 0 {
		n.routers[id].SkipCycles(gap)
		n.lastRun[id] = upTo
	}
}
