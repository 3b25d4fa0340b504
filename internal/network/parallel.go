// Parallel kernel support: the canonical color-phased tick schedule, the
// staged delivery/drop sinks replayed at color barriers, and the shard
// worker pool. See DESIGN.md "Parallel kernel" for the full argument; the
// short form:
//
// All intra-cycle cross-router interactions of a ticking router reach at
// most graph distance 2 — it mutates state at distance <= 1 (claims input
// VCs at its downstream neighbors, releases claims during recovery, writes
// its conn pipes' staging halves) and dynamically reads state at distance
// <= 1 (downstream claimability, congestion costs of the lookahead route).
// The only distance-2 reads are of fault state (CanServe), which changes
// exclusively in the sequential fault-installation phase and is therefore
// stable across a cycle's tick phases. Routers at graph distance >= 3 thus
// neither touch common mutable state nor observe each other's same-cycle
// effects, so they may tick in any order — or concurrently — with results
// identical to any sequential interleaving.
//
// The schedule makes that executable: a deterministic greedy coloring of
// the distance-<=2 conflict graph partitions the routers into color
// classes of pairwise distance >= 3, one bitset per color, and every
// kernel (reference, and gated at any shard count) sweeps the colors in
// ascending order with router ids ascending within a color. Delivery and
// drop sinks are the one piece of genuinely global state a tick touches
// (latency accumulators, delivery buckets, the broken-packet registry,
// the reliability tracker), so during tick phases they stage events into
// the emitting node's shard buffer and the coordinator replays them at
// each color barrier in shard-major order — which, because shards are
// contiguous id ranges, is exactly ascending id within the color. Shards=N is therefore bit-identical to Shards=1,
// and Workers only decides how many goroutines claim shards inside one
// color phase.
package network

import (
	"sync/atomic"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// sinkEvent is one deferred delivery (drop=false) or drop (drop=true)
// emitted by a router tick while the sinks were staging.
type sinkEvent struct {
	f      *flit.Flit
	node   int32
	drop   bool
	reason trace.DropReason
	cycle  int64
}

// buildSchedule computes the canonical tick schedule for a topology: a
// greedy coloring (ascending id) of the distance-<=2 conflict graph, as
// one bitset of routers per color, plus the node->shard map. Shards are
// contiguous id ranges of near-equal size, so within a color the
// shard-major traversal visits ids in ascending order.
func buildSchedule(topo *topology.Grid, shards int) (colorMask []router.Bitset, shardOf []int) {
	nodes := topo.Nodes()
	colorOf := make([]int, nodes)
	mark := make([]int, nodes)
	for i := range mark {
		colorOf[i] = -1
		mark[i] = -1
	}
	var nbhd []int
	colors := 0
	for v := 0; v < nodes; v++ {
		// Conflict neighborhood: every node within graph distance 2
		// (deduplicated — torus wrap links can reach a node twice).
		nbhd = nbhd[:0]
		collect := func(u int) {
			if mark[u] != v {
				mark[u] = v
				nbhd = append(nbhd, u)
			}
		}
		for _, d := range topology.CardinalDirections {
			u, ok := topo.Neighbor(v, d)
			if !ok {
				continue
			}
			collect(u)
			for _, d2 := range topology.CardinalDirections {
				if w, ok := topo.Neighbor(u, d2); ok {
					collect(w)
				}
			}
		}
		// Smallest color unused in the neighborhood. Degree is at most 12
		// on a 2D torus, so the bitmask never overflows.
		used := 0
		for _, u := range nbhd {
			if c := colorOf[u]; c >= 0 {
				used |= 1 << c
			}
		}
		c := 0
		for used&(1<<c) != 0 {
			c++
		}
		colorOf[v] = c
		if c+1 > colors {
			colors = c + 1
		}
	}

	colorMask = make([]router.Bitset, colors)
	for c := range colorMask {
		colorMask[c] = router.NewBitset(nodes)
	}
	shardOf = make([]int, nodes)
	for v := range shardOf {
		colorMask[colorOf[v]].Set(v)
		shardOf[v] = v * shards / nodes
	}
	return colorMask, shardOf
}

// poolFor returns the shard-local flit pool for packets sourced at node id
// (nil in the reference kernel, which allocates fresh).
func (n *Network) poolFor(id int) *flit.Pool {
	if n.pools == nil {
		return nil
	}
	return n.pools[n.shardOf[id]]
}

// tickColors runs one cycle's router ticks through the canonical schedule:
// colors ascending, a barrier after each color, and the color's staged
// sink events replayed at the barrier. With more than one worker the
// shards of a color tick concurrently; the replay order (shard-major =
// ascending id within the color) never depends on the worker count.
func (n *Network) tickColors(t int64) {
	n.staging = true
	parallel := n.workers > 1
	if parallel && n.wp == nil {
		n.startWorkers()
	}
	for c := range n.colorMask {
		if parallel {
			n.runColorParallel(c, t)
		} else {
			for s := 0; s < n.shards; s++ {
				n.tickShard(c, s, t)
			}
		}
		n.replayStaged()
	}
	n.staging = false
}

// sink is every router's delivery sink (the engine's Deliver). During the
// tick phases of a cycle it stages the event into the emitting node's
// shard buffer, and the coordinator replays the buffers in canonical order
// at each color barrier; outside the tick phases (injection loopback,
// fault installation) it delivers directly.
func (n *Network) sink(node int, f *flit.Flit, cycle int64) {
	if n.staging {
		s := n.shardOf[node]
		n.sinkBufs[s] = append(n.sinkBufs[s], sinkEvent{f: f, node: int32(node), cycle: cycle})
		return
	}
	n.deliver(node, f, cycle)
}

// dropSink is every router's drop sink (the engine's Drop), staged like
// sink.
func (n *Network) dropSink(node int, f *flit.Flit, cycle int64, reason trace.DropReason) {
	if n.staging {
		s := n.shardOf[node]
		n.sinkBufs[s] = append(n.sinkBufs[s], sinkEvent{f: f, node: int32(node), drop: true, reason: reason, cycle: cycle})
		return
	}
	n.noteDrop(f, cycle, reason)
}

// replayStaged applies the staged delivery/drop events accumulated during
// the color phase that just finished, shard by shard. Event pointers are
// cleared as they are consumed so the retained buffers never pin flits
// past their recycling.
func (n *Network) replayStaged() {
	for s := range n.sinkBufs {
		buf := n.sinkBufs[s]
		for i := range buf {
			ev := buf[i]
			buf[i].f = nil
			if ev.drop {
				n.noteDrop(ev.f, ev.cycle, ev.reason)
			} else {
				n.deliver(int(ev.node), ev.f, ev.cycle)
			}
		}
		n.sinkBufs[s] = buf[:0]
	}
}

// workerPool executes color phases across persistent goroutines. The
// coordinator publishes (color, cycle), resets the shard cursor, and
// signals every helper; helpers and the coordinator then race to claim
// shard indexes off the atomic cursor until the color is exhausted. Each
// shard is claimed exactly once, and all state a shard tick touches (its
// routers, their conn halves, the shard's ticked list and sink buffer) is
// private to the claimant for the duration of the phase.
type workerPool struct {
	n      *Network
	starts []chan struct{}
	done   chan any
	next   atomic.Int64
	color  int
	cycle  int64
}

// startWorkers launches workers-1 helper goroutines (the coordinator is
// the remaining worker). Called lazily on the first parallel tick phase;
// collect stops the helpers.
func (n *Network) startWorkers() {
	wp := &workerPool{n: n, done: make(chan any, n.workers-1)}
	wp.starts = make([]chan struct{}, n.workers-1)
	for i := range wp.starts {
		start := make(chan struct{}, 1)
		wp.starts[i] = start
		go func() {
			for range start {
				wp.done <- wp.runPhase()
			}
		}()
	}
	n.wp = wp
}

// stopWorkers shuts the helper goroutines down (idempotent). The pool is
// restartable: the next parallel tick phase simply launches a fresh one.
func (n *Network) stopWorkers() {
	if n.wp == nil {
		return
	}
	for _, start := range n.wp.starts {
		close(start)
	}
	n.wp = nil
}

// runPhase claims and ticks shards of the current color until none remain,
// converting a panic (an auditor or router invariant tripping on a helper
// goroutine) into a value the coordinator re-raises.
func (wp *workerPool) runPhase() (panicked any) {
	defer func() { panicked = recover() }()
	for {
		s := int(wp.next.Add(1)) - 1
		if s >= wp.n.shards {
			return nil
		}
		wp.n.tickShard(wp.color, s, wp.cycle)
	}
}

// runColorParallel executes one color phase across the worker pool and
// blocks until every shard of the color has ticked.
func (n *Network) runColorParallel(color int, t int64) {
	wp := n.wp
	wp.color, wp.cycle = color, t
	wp.next.Store(0)
	for _, start := range wp.starts {
		start <- struct{}{}
	}
	own := wp.runPhase()
	var helper any
	for range wp.starts {
		if v := <-wp.done; v != nil && helper == nil {
			helper = v
		}
	}
	if own != nil {
		panic(own)
	}
	if helper != nil {
		panic(helper)
	}
}
