package router

import (
	"fmt"

	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// HotState is a struct-of-arrays mirror of the per-channel state the
// kernel's hot loops consult every cycle: buffered-flit counts, path-set
// classes, and per-router dormancy. Channels across the whole network are
// assigned dense slots — routers bind in ascending node order and each
// router's channels occupy the contiguous range [base[id], base[id+1]) in
// its own grantee-index order — so the coordinator's wake scan, the
// conservation audit, and telemetry occupancy sampling become linear
// sweeps over packed int32/uint8 arrays instead of virtual calls chasing
// per-router pointer graphs.
//
// The mirror is maintained incrementally: every VC queue/states mutation
// (PushFrom, Pop, AbortFront) updates its slot through syncHot, keeping
// occ[slot] equal to the channel's buffered-flit count and busyVCs[id]
// equal to the router's number of non-dormant channels. Since every
// router kind defines Idle as "all channels dormant", RouterBusy is an
// exact mirror of !Idle() — the gated kernel's sleep decisions match a
// per-router Idle() scan bit for bit. Snapshot loads bypass the
// incremental hooks and call Resync instead.
//
// Concurrency: during a parallel color phase only a channel's owning
// router mutates it, so slot entries and busyVCs[id] are written by at
// most one worker; the coordinator reads them only at phase barriers.
type HotState struct {
	base     []int32 // per router: first slot; len = routers bound + 1
	occ      []int32 // per slot: buffered flits (mirrors len(vc.queue))
	class    []uint8 // per slot: the channel's path-set class (routing.Turn)
	routerOf []int32 // per slot: owning router id
	busyVCs  []int32 // per router: channels with resident flits or packet state
	vcs      []*VC   // per slot: the mirrored channel, for Resync
}

// NewHotState returns an empty table expecting nodes routers to bind.
func NewHotState(nodes int) *HotState {
	hs := &HotState{
		base:    make([]int32, 1, nodes+1),
		busyVCs: make([]int32, nodes),
	}
	return hs
}

// BindRouter registers a router's channels, in their grantee-index order,
// as the next contiguous slot range. Routers must bind in ascending id
// order with no gaps so that slot ranges are derivable from the id alone.
func (hs *HotState) BindRouter(id int, vcs []*VC) {
	if id != len(hs.base)-1 {
		panic(fmt.Sprintf("router: hot-state binding out of order: router %d bound %d-th", id, len(hs.base)-1))
	}
	if id >= len(hs.busyVCs) {
		panic(fmt.Sprintf("router: hot-state binding router %d beyond declared %d nodes", id, len(hs.busyVCs)))
	}
	for _, vc := range vcs {
		if vc.hot != nil {
			panic(fmt.Sprintf("router: channel %d of router %d already hot-bound", vc.Index, id))
		}
		vc.hot = hs
		vc.slot = int32(len(hs.occ))
		hs.occ = append(hs.occ, int32(len(vc.queue)))
		hs.class = append(hs.class, uint8(vc.Class))
		hs.routerOf = append(hs.routerOf, int32(id))
		hs.vcs = append(hs.vcs, vc)
		if len(vc.queue)+len(vc.states) > 0 {
			hs.busyVCs[id]++
		}
	}
	hs.base = append(hs.base, int32(len(hs.occ)))
}

// Routers returns how many routers have bound.
func (hs *HotState) Routers() int { return len(hs.base) - 1 }

// Slots returns the total number of bound channels.
func (hs *HotState) Slots() int { return len(hs.occ) }

// RouterBusy mirrors !router.Idle(): at least one channel holds a
// buffered flit or resident packet state. One array load, no dispatch.
func (hs *HotState) RouterBusy(id int) bool { return hs.busyVCs[id] != 0 }

func (hs *HotState) vcWake(slot int32) { hs.busyVCs[hs.routerOf[slot]]++ }

func (hs *HotState) vcSleep(slot int32) {
	id := hs.routerOf[slot]
	hs.busyVCs[id]--
	if hs.busyVCs[id] < 0 {
		panic(fmt.Sprintf("router: hot-state dormancy underflow on router %d", id))
	}
}

// Resync rebuilds every derived entry from the bound channels. Snapshot
// restore mutates channel internals without going through the mutator
// hooks; the network calls Resync once after the routers load.
func (hs *HotState) Resync() {
	for id := range hs.busyVCs {
		hs.busyVCs[id] = 0
	}
	for i, vc := range hs.vcs {
		hs.occ[i] = int32(len(vc.queue))
		hs.class[i] = uint8(vc.Class)
		if len(vc.queue)+len(vc.states) > 0 {
			hs.busyVCs[hs.routerOf[i]]++
		}
	}
}

// Audit recomputes every mirrored entry from the bound channels and
// reports the first disagreement: a channel mutation that bypassed
// syncHot. It allocates nothing unless it fails.
func (hs *HotState) Audit() error {
	for id := 0; id < hs.Routers(); id++ {
		busy := int32(0)
		for s := hs.base[id]; s < hs.base[id+1]; s++ {
			vc := hs.vcs[s]
			if hs.occ[s] != int32(len(vc.queue)) || hs.class[s] != uint8(vc.Class) {
				return fmt.Errorf("router %d: hot-state slot %d reads occupancy %d class %d, its channel holds %d flits of class %d",
					id, s, hs.occ[s], hs.class[s], len(vc.queue), vc.Class)
			}
			if !vc.Dormant() {
				busy++
			}
		}
		if busy != hs.busyVCs[id] {
			return fmt.Errorf("router %d: hot state counts %d busy channels, recount gives %d", id, hs.busyVCs[id], busy)
		}
	}
	return nil
}

// BufferedFlits sums router id's buffered flits from the packed
// occupancy array — equal, by maintenance invariant, to the router's own
// BufferedFlits() sweep over its channel objects.
func (hs *HotState) BufferedFlits(id int) int {
	n := int32(0)
	for _, c := range hs.occ[hs.base[id]:hs.base[id+1]] {
		n += c
	}
	return int(n)
}

// TotalBuffered sums buffered flits across the whole network in one
// linear sweep (the conservation auditor's in-router term).
func (hs *HotState) TotalBuffered() int64 {
	var n int64
	for _, c := range hs.occ {
		n += int64(c)
	}
	return n
}

// OccupancyByClass adds every channel's buffered-flit count into per,
// bucketed by path-set class, and returns the total added — the SoA
// equivalent of summing VCOccupancy over all routers.
func (hs *HotState) OccupancyByClass(per *[routing.NumClasses]int32) int {
	total := int32(0)
	for i, c := range hs.occ {
		if c == 0 {
			continue
		}
		per[hs.class[i]] += c
		total += c
	}
	return int(total)
}

// VCArena slab-allocates channels contiguously so one router's — and
// neighboring routers' — hot channel metadata shares cache lines instead
// of scattering across individually boxed heap objects. Arena channels
// are also lazy: their flit queue and packet-state backing arrays stay
// nil until the first flit arrives, so a dormant channel on a big mesh
// costs only the VC header. The first PushFrom allocates the flit queue
// at full depth and the packet-state array at a small starting capacity
// that grows on demand (amortized, bounded by MaxPacketsPerChannel), so
// the steady state settles at zero allocs per cycle.
type VCArena struct {
	slab []VC
	used int
}

// arenaChunk is how many channels one slab holds. 1024 VCs ≈ one 8x8
// mesh of RoCo routers per slab; big meshes chain slabs, small ones
// waste at most one slab's tail.
const arenaChunk = 1024

// NewVC carves an idle lazy channel out of the arena.
func (a *VCArena) NewVC(index, depth int) *VC {
	if depth < 1 {
		panic("router: VC depth must be >= 1")
	}
	if a.used == len(a.slab) {
		a.slab = make([]VC, arenaChunk)
		a.used = 0
	}
	v := &a.slab[a.used]
	a.used++
	*v = VC{Index: index, Depth: depth, claimFeeder: topology.Invalid}
	return v
}
