package router

import (
	"fmt"
	"math"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
)

// MaxPacketsPerChannel bounds how many packets may be admitted to one
// virtual channel at once. VC reallocation is non-atomic: the next packet
// is admitted as soon as the previous packet's tail has been sent by the
// upstream router, so a channel streams back-to-back packets without
// waiting for the full drain — but only packets arriving over the same
// upstream link, which preserves FIFO flit order inside the buffer. The
// window is deliberately deep: a channel behaves as a per-(link, class)
// FIFO whose throughput is bounded by credits and switch bandwidth, not by
// packet-granularity reservation (Table 1 provisions as little as one dy
// channel per direction, which must still sustain near-full link rate).
const MaxPacketsPerChannel = 8

// pktState flag bits (pktState.flags).
const (
	// psEject: the packet will be early-ejected at the downstream router
	// (no downstream channel needed).
	psEject = 1 << iota
	// psDoomed: the packet is marked for discard (fault handling).
	psDoomed
	// psStreamed: at least one flit of the packet has left this router
	// toward its granted target; recovery uses it to decide whether a
	// cancelled grant's downstream claim may be released.
	psStreamed
	// psCancelled: the packet's VA grant has been withdrawn from the
	// output book (live fault recovery); prevents double cancellation.
	psCancelled
)

// pktState is the routing state of one packet resident in (or admitted to)
// a channel: its output port at this router, the downstream channel its VA
// granted, and the link its credits return over. The layout is packed to
// 16 bytes — Direction fields are single bytes, the four booleans share
// one flag byte, and the downstream channel index fits int32 — so big
// meshes move less per-VC state per cycle. In-memory layout only: the
// snapshot codec still writes each field in its canonical form.
type pktState struct {
	packetID uint64
	outVC    int32
	outPort  topology.Direction
	nextOut  topology.Direction
	feeder   topology.Direction
	flags    uint8
}

// VC is one virtual-channel buffer. Its flit queue is strictly FIFO and
// may hold the tail of one packet and the head of the next; the states
// list tracks per-packet routing state in the same order. Only the front
// packet participates in allocation.
//
// The byte-sized fields sit together at the end so they share one word: a
// node holds a dozen channels, and the layout keeps each at 104 bytes.
type VC struct {
	// Index is the VC's identity inside its router's VC namespace; it is
	// what upstream routers place into flit.VC.
	Index int
	// Depth is the buffer capacity in flits.
	Depth int
	// FaultPenalty is the extra cycles a flit spends before becoming
	// SA-ready in a faulty channel.
	FaultPenalty int64

	claims int // packets admitted whose tails have not yet popped
	states []pktState
	queue  []*flit.Flit

	// alloc/abit bind the channel into its router's allocation bitmaps
	// (see AllocState); nil/0 for unbound channels. Queue, states and
	// routing-state mutations resync through syncAlloc, claim mutations
	// through syncClaim.
	alloc *AllocState
	abit  uint64

	// Class is the semantic path-set class of the channel (dx, dy, txy,
	// tyx, Injxy, Injyx) for the RoCo router; baseline routers leave the
	// zero value.
	Class routing.Turn
	// Faulty marks a failed buffer operating under virtual queuing: the
	// channel degrades to a single bypass latch (capacity 1) and every
	// flit passing through pays the handshake penalty.
	Faulty bool
	// condemned poisons the channel after a live fault kills its datapath:
	// every resident packet is doomed and every future arrival's state
	// opens already doomed, so in-flight wormholes drain instead of
	// wedging.
	condemned   bool
	claimFeeder topology.Direction
}

// NewVC returns an idle channel of the given index and depth.
func NewVC(index, depth int) *VC {
	if depth < 1 {
		panic("router: VC depth must be >= 1")
	}
	return &VC{
		Index:       index,
		Depth:       depth,
		claimFeeder: topology.Invalid,
		states:      make([]pktState, 0, MaxPacketsPerChannel),
		queue:       make([]*flit.Flit, 0, depth),
	}
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

// lazyStateCap is the initial packet-state capacity of a lazily built
// (arena) channel. Most channels hold one or two resident packets at a
// time; starting small and letting append grow toward
// MaxPacketsPerChannel (amortized, bounded) cuts the per-node footprint
// on big meshes without affecting behavior — capacity is never observable.
const lazyStateCap = 2

// ensureBuffers allocates the queue and packet-state backing arrays of a
// lazily built (arena) channel on first use. The flit queue is allocated
// at full depth (it fills within a few cycles of any activity); the
// packet-state array starts at lazyStateCap and grows on demand. Eagerly
// built channels (NewVC) have non-nil backing from birth and skip this.
func (v *VC) ensureBuffers() {
	if v.queue == nil {
		v.queue = make([]*flit.Flit, 0, v.Depth)
	}
	if v.states == nil {
		v.states = make([]pktState, 0, lazyStateCap)
	}
}

// Capacity returns the usable buffer depth, accounting for a buffer fault
// (virtual queuing degrades the channel to its single bypass latch).
func (v *VC) Capacity() int {
	if v.Faulty {
		return 1
	}
	return v.Depth
}

// Len returns the number of buffered flits.
func (v *VC) Len() int { return len(v.queue) }

// HasRoom reports whether one more flit fits.
func (v *VC) HasRoom() bool { return len(v.queue) < v.Capacity() }

// Dormant reports whether ticking the owning router can do nothing with
// this channel: no flit is buffered and no packet state is resident. An
// upstream claim alone does not block dormancy — a claimed channel needs
// no work until its flit lands, and the link pipe carrying that flit
// wakes the router before it does.
func (v *VC) Dormant() bool { return len(v.queue) == 0 && len(v.states) == 0 }

// Front returns the oldest buffered flit without removing it, or nil.
func (v *VC) Front() *flit.Flit {
	if len(v.queue) == 0 {
		return nil
	}
	return v.queue[0]
}

// OutPort returns the front packet's output port at this router, or
// Invalid when the channel is empty.
func (v *VC) OutPort() topology.Direction {
	if len(v.states) == 0 {
		return topology.Invalid
	}
	return v.states[0].outPort
}

// NextOut returns the front packet's look-ahead route (its output at the
// downstream router), or Invalid.
func (v *VC) NextOut() topology.Direction {
	if len(v.states) == 0 {
		return topology.Invalid
	}
	return v.states[0].nextOut
}

// OutVC returns the downstream channel granted to the front packet, or -1.
func (v *VC) OutVC() int {
	if len(v.states) == 0 {
		return -1
	}
	return int(v.states[0].outVC)
}

// EjectNext reports whether the front packet will be early-ejected at the
// downstream router (no downstream channel needed).
func (v *VC) EjectNext() bool {
	return len(v.states) > 0 && v.states[0].flags&psEject != 0
}

// Feeder returns the link the front packet arrived over (Local for
// PE-injected packets), or Invalid.
func (v *VC) Feeder() topology.Direction {
	if len(v.states) == 0 {
		return topology.Invalid
	}
	return v.states[0].feeder
}

// SetNextOut updates the front packet's look-ahead route (adaptive VA
// retries recompute it).
func (v *VC) SetNextOut(d topology.Direction) { v.states[0].nextOut = d }

// GrantRoute records a VA grant for the front packet.
func (v *VC) GrantRoute(outVC int, nextOut topology.Direction) {
	v.states[0].outVC = int32(outVC)
	v.states[0].nextOut = nextOut
	v.syncAlloc()
}

// GrantEject marks the front packet for downstream early ejection.
func (v *VC) GrantEject() {
	v.states[0].flags |= psEject
	v.states[0].nextOut = topology.Local
	v.syncAlloc()
}

// Doom marks the front packet undeliverable: a permanent fault blocks its
// only route, so the router discards its flits as they drain (the paper's
// static fault handling: "fragmented packets are simply discarded").
// Without discard, the stranded wormhole would assert backpressure forever
// and tree saturation would wedge the whole network.
func (v *VC) Doom() {
	v.states[0].flags |= psDoomed
	v.syncAlloc()
}

// Doomed reports whether the front packet is marked for discard.
func (v *VC) Doomed() bool { return len(v.states) > 0 && v.states[0].flags&psDoomed != 0 }

// DoomResidents dooms every packet currently admitted to the channel (a
// live buffer fault: the flits latched in the failed buffer are lost).
// Future arrivals are unaffected.
func (v *VC) DoomResidents() {
	for i := range v.states {
		v.states[i].flags |= psDoomed
	}
	v.syncAlloc()
}

// Condemn permanently poisons the channel after a live fault disables its
// datapath: all resident packets are doomed and every packet admitted
// later arrives doomed, so in-flight wormholes targeting the dead channel
// drain away instead of wedging the network.
func (v *VC) Condemn() {
	v.condemned = true
	v.DoomResidents()
}

// MarkStreamed records that the front packet has begun streaming flits out
// of this router (switch traversal); recovery consults it before releasing
// a cancelled grant's downstream claim.
func (v *VC) MarkStreamed() { v.states[0].flags |= psStreamed }

// FrontState is a read-only snapshot of the front packet's routing state,
// used by the shared fault-recovery sweep.
type FrontState struct {
	PacketID  uint64
	OutPort   topology.Direction
	OutVC     int
	EjectNext bool
	Doomed    bool
	Streamed  bool
	Cancelled bool
}

// FrontState snapshots the front packet's state; ok is false for an idle
// channel.
func (v *VC) FrontState() (FrontState, bool) {
	if len(v.states) == 0 {
		return FrontState{}, false
	}
	s := v.states[0]
	return FrontState{
		PacketID:  s.packetID,
		OutPort:   s.outPort,
		OutVC:     int(s.outVC),
		EjectNext: s.flags&psEject != 0,
		Doomed:    s.flags&psDoomed != 0,
		Streamed:  s.flags&psStreamed != 0,
		Cancelled: s.flags&psCancelled != 0,
	}, true
}

// CancelFrontGrant marks the front packet's VA grant withdrawn (the caller
// removes it from the output book); further sweeps skip it.
func (v *VC) CancelFrontGrant() { v.states[0].flags |= psCancelled }

// frontAligned reports whether the front buffered flit belongs to the
// front packet state. The two can diverge after a live fault: a doomed
// packet's resident flits may all have drained while its state waits for
// flits still in flight, letting the next packet's head reach the queue
// front early.
func (v *VC) frontAligned() bool {
	return len(v.queue) > 0 && len(v.states) > 0 && v.queue[0].PacketID == v.states[0].packetID
}

// FrontPacketBuffered reports whether any buffered flit belongs to the
// front packet state (FIFO: only the queue front can).
func (v *VC) FrontPacketBuffered() bool { return v.frontAligned() }

// DrainDoomed pops and returns the next buffered flit of a doomed front
// packet, or nil when the front packet is not doomed or none of its flits
// are buffered. It never touches flits of the packets queued behind a
// doomed fragment.
func (v *VC) DrainDoomed() *flit.Flit {
	if !v.Doomed() || !v.frontAligned() {
		return nil
	}
	return v.Pop()
}

// AbortFront forcibly retires the front packet state as if its tail had
// popped, releasing its claim slot. Fault recovery uses it for broken packets
// whose remaining flits were dropped elsewhere and can never arrive; no
// flit of the packet may still be buffered.
func (v *VC) AbortFront() {
	if len(v.states) == 0 {
		panic(fmt.Sprintf("router: abort on idle vc %d", v.Index))
	}
	if v.frontAligned() {
		panic(fmt.Sprintf("router: abort of vc %d front packet with buffered flits", v.Index))
	}
	copy(v.states, v.states[1:])
	v.states = v.states[:len(v.states)-1]
	v.claims--
	if v.claims == 0 {
		v.claimFeeder = topology.Invalid
	}
	v.syncClaim()
	v.syncAlloc()
}

// ReleaseClaim returns one claim slot taken with Claim before any flit of
// the claiming packet arrived (recovery withdraws an upstream grant whose
// packet never streamed). Claims backing admitted packets must be retired
// through Pop or AbortFront instead.
func (v *VC) ReleaseClaim() {
	if v.claims <= len(v.states) {
		panic(fmt.Sprintf("router: release of unheld claim on vc %d", v.Index))
	}
	v.claims--
	if v.claims == 0 {
		v.claimFeeder = topology.Invalid
	}
	v.syncClaim()
}

// PurgeClaims releases every claim fed over link from that no admitted
// packet backs. SeverPort calls it when from is cut by a die-to-die
// interface fault: the heads those claims await were either dropped at
// the dead interface or will never be sent, so no flit can ever fulfill
// them — left in place they latch the feeder and make the channel
// permanently unclaimable, wedging every turn class that maps to it.
func (v *VC) PurgeClaims(from topology.Direction) {
	if v.claimFeeder != from {
		return
	}
	for v.claims > len(v.states) {
		v.ReleaseClaim()
	}
}

// Claimable reports whether the channel can admit a new packet arriving
// over link from. Admission requires a free packet slot and, when the
// channel is already occupied or claimed, the same feeder link — flits
// from one link arrive in order, so back-to-back packets stay FIFO.
func (v *VC) Claimable(from topology.Direction) bool {
	if v.claims == 0 {
		return true
	}
	return v.claims < MaxPacketsPerChannel && from == v.claimFeeder
}

// Claim reserves a packet slot for an inbound packet on link from. It
// panics when not claimable: the claim protocol must check first.
func (v *VC) Claim(from topology.Direction) {
	if !v.Claimable(from) {
		panic(fmt.Sprintf("router: claim of unavailable vc %d", v.Index))
	}
	v.claims++
	v.claimFeeder = from
	v.syncClaim()
}

// PushFrom buffers a flit that arrived over link from. A head flit opens
// the next admitted packet's state. Pushing into a full channel, or a head
// without a claim, panics: flow control must prevent both.
func (v *VC) PushFrom(f *flit.Flit, from topology.Direction) {
	// Overflow is asserted against the physical depth, not Capacity(): a
	// buffer fault installed at runtime shrinks the usable capacity while
	// flits credited under the old regime are still in flight, and those
	// must still land in the physical latches.
	if len(v.queue) >= v.Depth {
		panic(fmt.Sprintf("router: overflow on vc %d: %v", v.Index, f))
	}
	v.ensureBuffers()
	if f.Type.IsHead() {
		if len(v.states) >= v.claims {
			panic(fmt.Sprintf("router: head %v pushed into vc %d without a claim", f, v.Index))
		}
		var flags uint8
		if v.condemned {
			flags = psDoomed
		}
		v.states = append(v.states, pktState{
			outPort:  f.OutPort,
			nextOut:  topology.Invalid,
			outVC:    -1,
			feeder:   from,
			packetID: f.PacketID,
			flags:    flags,
		})
	} else if len(v.states) == 0 {
		panic(fmt.Sprintf("router: body/tail %v pushed into idle vc %d", f, v.Index))
	}
	if v.Faulty {
		f.ReadyAt += v.FaultPenalty
	}
	v.queue = append(v.queue, f)
	v.syncAlloc()
}

// Pop removes and returns the front flit. Popping a tail retires the front
// packet and releases its claim slot.
func (v *VC) Pop() *flit.Flit {
	if len(v.queue) == 0 {
		panic(fmt.Sprintf("router: pop from empty vc %d", v.Index))
	}
	f := v.queue[0]
	copy(v.queue, v.queue[1:])
	v.queue = v.queue[:len(v.queue)-1]
	if f.Type.IsTail() {
		copy(v.states, v.states[1:])
		v.states = v.states[:len(v.states)-1]
		v.claims--
		if v.claims == 0 {
			v.claimFeeder = topology.Invalid
		}
		v.syncClaim()
	}
	v.syncAlloc()
	return f
}

// NeedsVA reports whether the channel's front flit is a head still
// awaiting a downstream channel grant. FIFO order guarantees that a head
// at the front belongs to the front packet state.
func (v *VC) NeedsVA() bool {
	f := v.Front()
	if f == nil || !f.Type.IsHead() || !v.frontAligned() {
		return false
	}
	return v.states[0].outVC < 0 && v.states[0].flags&psEject == 0
}

// OutVCBook tracks the upstream-side credit state of the downstream
// channels reachable through one output port, and orders non-atomic
// channel handover: several local packets may hold grants to the same
// downstream channel, but only the oldest grant may stream flits until its
// tail has been sent — younger grants wait, so flits of back-to-back
// packets never interleave on the link and the shared downstream FIFO
// stays in order.
//
// A book is a single 128-byte allocation: a node holds one per output,
// so on big meshes its layout is a visible share of the footprint. The
// fixed arrays cover the widest namespace a link addresses (maxInputVCs
// channels), the counters are int8, and each channel's grant FIFO is one
// word (see grantFIFO). The packing relies on bounds the chassis
// guarantees: a book tracks at most 12 channels, grantees are channel
// indexes below 16, depths are at most 127 flits, and at most
// MaxPacketsPerChannel (8) grants queue per channel, since each is backed
// by a claim on that channel.
type OutVCBook struct {
	depths   [maxInputVCs]int8
	inflight [maxInputVCs]int8 // flits sent into the channel, credits not yet returned
	n        uint8             // channels tracked
	// alive caches Alive(vc) as a bitmap (bit vc set iff depths[vc] > 0)
	// so VA candidate masking is one AND instead of a per-channel load.
	// Maintained by SetDepth and rebuilt on snapshot load.
	alive uint16
	order [maxInputVCs]grantFIFO
}

// grantFIFO is one downstream channel's queue of local grantees: 4-bit
// grantee indexes, oldest in the low nibble, with the queue length in the
// top nibble. Slots past the length are kept zero.
type grantFIFO uint64

const (
	granteeBits = 4
	// maxGrantee bounds the grantee indexes a FIFO slot holds.
	maxGrantee = 1<<granteeBits - 1
	// grantCap is how many grants one FIFO holds: every nibble below the
	// length nibble.
	grantCap   = 64/granteeBits - 1
	lenShift   = grantCap * granteeBits
	grantsMask = grantFIFO(1)<<lenShift - 1
	// maxBookDepth bounds a downstream channel's depth, and so its
	// in-flight count, to the int8 counters.
	maxBookDepth = math.MaxInt8
)

// The packing's structural bounds, checked at compile time: every channel
// index fits a grantee slot, a channel's claims fit its FIFO, and a
// namespace fits the alive bitmap.
var (
	_ [maxGrantee + 1 - maxChannels]struct{}
	_ [grantCap - MaxPacketsPerChannel]struct{}
	_ [16 - maxInputVCs]struct{}
)

// count returns the number of queued grants.
func (q grantFIFO) count() int { return int(q >> lenShift) }

// at returns the i-th oldest grantee.
func (q grantFIFO) at(i int) int { return int((q >> (granteeBits * uint(i))) & maxGrantee) }

// push appends grantee g; it panics past grantCap.
func (q grantFIFO) push(g int) grantFIFO {
	n := q.count()
	if n == grantCap {
		panic(fmt.Sprintf("router: grant FIFO overflow: %d grants queued", n))
	}
	return (q + 1<<lenShift) | grantFIFO(g)<<(granteeBits*uint(n))
}

// remove drops the i-th oldest grantee, closing the gap.
func (q grantFIFO) remove(i int) grantFIFO {
	shift := granteeBits * uint(i)
	low := q & (1<<shift - 1)
	high := ((q & grantsMask) >> (shift + granteeBits)) << shift
	return grantFIFO(q.count()-1)<<lenShift | high | low
}

// NewOutVCBook returns a book for n downstream VCs of the given depth.
func NewOutVCBook(n, depth int) *OutVCBook {
	if n < 0 || n > maxInputVCs {
		panic(fmt.Sprintf("router: output book of %d VCs exceeds %d", n, maxInputVCs))
	}
	b := &OutVCBook{n: uint8(n)}
	for vc := 0; vc < n; vc++ {
		b.SetDepth(vc, depth)
	}
	return b
}

// resyncAlive rebuilds the alive bitmap from the depths.
func (b *OutVCBook) resyncAlive() {
	b.alive = 0
	for vc, d := range b.depths[:b.n] {
		if d > 0 {
			b.alive |= 1 << uint(vc)
		}
	}
}

// SetDepth adjusts the capacity of one downstream channel: at wiring time
// when a pre-installed buffer fault degrades a VC to its bypass latch, and
// live when a runtime fault re-propagates the neighbor handshake. The book
// tracks occupancy (flits in flight), not free credits, so a live change
// stays consistent: outstanding flits keep returning their credits and
// available credit is simply recomputed against the new depth.
func (b *OutVCBook) SetDepth(vc, depth int) {
	if depth < 0 || depth > maxBookDepth {
		panic(fmt.Sprintf("router: VC depth %d outside [0,%d]", depth, maxBookDepth))
	}
	b.depths[b.index(vc)] = int8(depth)
	if depth > 0 {
		b.alive |= 1 << uint(vc)
	} else {
		b.alive &^= 1 << uint(vc)
	}
}

// index bounds-checks vc against the channels tracked (the fixed arrays
// would otherwise accept any index below maxInputVCs).
func (b *OutVCBook) index(vc int) int {
	if uint(vc) >= uint(b.n) {
		panic(fmt.Sprintf("router: downstream vc %d outside a %d-VC book", vc, b.n))
	}
	return vc
}

// Size returns the number of downstream VCs tracked.
func (b *OutVCBook) Size() int { return int(b.n) }

// Alive reports whether downstream VC vc is usable at all.
func (b *OutVCBook) Alive(vc int) bool { return b.depths[vc] > 0 }

// AliveMask returns the usable downstream channels as a bitmap (bit vc
// set iff Alive(vc)); VA request building ANDs it into candidate masks.
func (b *OutVCBook) AliveMask() uint64 { return uint64(b.alive) }

// EnqueueGrant records a local VA grant of downstream channel vc to the
// local channel grantee; grants stream in FIFO order. It panics when the
// grantee does not fit a FIFO slot or the FIFO is full.
func (b *OutVCBook) EnqueueGrant(vc, grantee int) {
	if uint(grantee) > maxGrantee {
		panic(fmt.Sprintf("router: grantee %d exceeds %d", grantee, maxGrantee))
	}
	vc = b.index(vc)
	b.order[vc] = b.order[vc].push(grantee)
}

// MayStream reports whether grantee holds the oldest outstanding grant of
// vc and may therefore send flits into it.
func (b *OutVCBook) MayStream(vc, grantee int) bool {
	q := b.order[vc]
	return q.count() > 0 && q.at(0) == grantee
}

// QueuedGrants returns the number of outstanding local grants of vc; VA
// uses it to spread load across equivalent channels instead of piling
// packets onto the first claimable one.
func (b *OutVCBook) QueuedGrants(vc int) int { return b.order[vc].count() }

// Credits returns the remaining buffer slots of vc: its (possibly
// fault-reduced) depth minus the flits in flight. A live depth reduction
// below the current occupancy reads as zero until enough credits return.
func (b *OutVCBook) Credits(vc int) int {
	c := int(b.depths[vc]) - int(b.inflight[vc])
	if c < 0 {
		return 0
	}
	return c
}

// CancelGrant withdraws grantee's oldest outstanding grant of vc, letting
// the next grant stream; fault recovery calls it when the granted packet
// is doomed. Reports whether a grant was found.
func (b *OutVCBook) CancelGrant(vc, grantee int) bool {
	q := b.order[vc]
	for i := 0; i < q.count(); i++ {
		if q.at(i) == grantee {
			b.order[vc] = q.remove(i)
			return true
		}
	}
	return false
}

// Send consumes one credit for a flit entering vc; the tail retires the
// oldest grant, letting the next packet stream.
func (b *OutVCBook) Send(vc int, tail bool) {
	if b.Credits(vc) <= 0 {
		panic(fmt.Sprintf("router: credit underflow on downstream vc %d", vc))
	}
	b.inflight[vc]++
	if tail {
		if b.order[vc].count() == 0 {
			panic(fmt.Sprintf("router: tail sent into unallocated downstream vc %d", vc))
		}
		b.order[vc] = b.order[vc].remove(0)
	}
}

// ReturnCredit processes one credit arriving from downstream.
func (b *OutVCBook) ReturnCredit(vc int) {
	if b.inflight[vc] <= 0 {
		panic(fmt.Sprintf("router: credit overflow on downstream vc %d", vc))
	}
	b.inflight[vc]--
}

// FreeSlots sums the outstanding credits across all downstream VCs; the
// adaptive cost function uses it as its congestion signal.
func (b *OutVCBook) FreeSlots() int {
	total := 0
	for vc := 0; vc < int(b.n); vc++ {
		total += b.Credits(vc)
	}
	return total
}
