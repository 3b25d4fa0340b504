package router

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
)

func makePacketFlits(id uint64, n int, out topology.Direction) []*flit.Flit {
	fl := flit.AppendSegment(nil, flit.Packet{ID: id, Src: 0, Dst: 1, Flits: n}, nil)
	for _, f := range fl {
		f.OutPort = out
	}
	return fl
}

// idle reports whether vc holds no flit, no packet state and no claim.
func idle(vc *VC) bool { return vc.Dormant() && vc.claims == 0 }

// switchReady reports whether the front flit may request the switch in
// the given cycle: the front packet is routed (VA done or ejecting next
// hop) and the flit's ReadyAt has passed. It is the readable spec of the
// saReady bit ANDed with VC.FrontReady; credit availability is the
// caller's concern.
func switchReady(v *VC, cycle int64) bool {
	f := v.Front()
	if f == nil || !v.frontAligned() || f.ReadyAt > cycle {
		return false
	}
	if f.Type.IsHead() {
		return v.states[0].outVC >= 0 || v.states[0].flags&psEject != 0
	}
	// Body/tail flits follow the wormhole their head opened.
	return true
}

func TestVCSinglePacketLifecycle(t *testing.T) {
	vc := NewVC(3, 5)
	if !idle(vc) {
		t.Fatal("new VC should be idle")
	}
	fl := makePacketFlits(1, 4, topology.East)

	if !vc.Claimable(topology.West) {
		t.Fatal("idle VC should be claimable")
	}
	vc.Claim(topology.West)
	for _, f := range fl {
		vc.PushFrom(f, topology.West)
	}
	if vc.Len() != 4 || vc.Dormant() {
		t.Fatalf("len=%d dormant=%v", vc.Len(), vc.Dormant())
	}
	if vc.OutPort() != topology.East || vc.Feeder() != topology.West {
		t.Fatalf("front state wrong: out=%s feeder=%s", vc.OutPort(), vc.Feeder())
	}
	if !vc.NeedsVA() {
		t.Fatal("head at front should need VA")
	}
	vc.GrantRoute(7, topology.North)
	if vc.NeedsVA() || vc.OutVC() != 7 || vc.NextOut() != topology.North {
		t.Fatal("grant not recorded")
	}
	for i := 0; i < 4; i++ {
		if !switchReady(vc, 1) {
			t.Fatalf("flit %d not switch-ready", i)
		}
		vc.Pop()
	}
	if !idle(vc) {
		t.Fatal("VC should be idle after tail pop")
	}
}

func TestVCBackToBackSameFeeder(t *testing.T) {
	vc := NewVC(0, 8)
	vc.Claim(topology.South)
	if !vc.Claimable(topology.South) {
		t.Fatal("same-feeder second claim should be allowed")
	}
	if vc.Claimable(topology.North) {
		t.Fatal("different-feeder claim must be rejected while occupied")
	}
	vc.Claim(topology.South)

	p1 := makePacketFlits(1, 2, topology.East)
	p2 := makePacketFlits(2, 2, topology.West)
	for _, f := range p1 {
		vc.PushFrom(f, topology.South)
	}
	for _, f := range p2 {
		vc.PushFrom(f, topology.South)
	}
	// Front packet is p1.
	if vc.OutPort() != topology.East {
		t.Fatalf("front packet out = %s, want E", vc.OutPort())
	}
	vc.GrantRoute(1, topology.East)
	vc.Pop() // p1 head
	vc.Pop() // p1 tail -> p2 becomes front
	if vc.OutPort() != topology.West || !vc.NeedsVA() {
		t.Fatalf("after p1 retires, front should be p2 awaiting VA (out=%s)", vc.OutPort())
	}
	vc.Pop()
	vc.Pop()
	if !idle(vc) {
		t.Fatal("VC should be idle after both packets retire")
	}
	if !vc.Claimable(topology.North) {
		t.Fatal("drained VC should accept any feeder again")
	}
}

func TestVCClaimWindowBound(t *testing.T) {
	vc := NewVC(0, 4)
	for i := 0; i < MaxPacketsPerChannel; i++ {
		if !vc.Claimable(topology.East) {
			t.Fatalf("claim %d should be allowed", i)
		}
		vc.Claim(topology.East)
	}
	if vc.Claimable(topology.East) {
		t.Fatal("claim window exceeded")
	}
}

func TestVCHeadWithoutClaimPanics(t *testing.T) {
	vc := NewVC(0, 4)
	defer func() {
		if recover() == nil {
			t.Error("head push without claim should panic")
		}
	}()
	vc.PushFrom(makePacketFlits(1, 2, topology.East)[0], topology.East)
}

func TestVCOverflowPanics(t *testing.T) {
	vc := NewVC(0, 1)
	vc.Claim(topology.East)
	fl := makePacketFlits(1, 2, topology.East)
	vc.PushFrom(fl[0], topology.East)
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic")
		}
	}()
	vc.PushFrom(fl[1], topology.East)
}

func TestVCFaultyCapacityAndPenalty(t *testing.T) {
	vc := NewVC(0, 5)
	vc.Faulty = true
	vc.FaultPenalty = 2
	if vc.Capacity() != 1 {
		t.Fatalf("faulty VC capacity = %d, want 1 (bypass latch)", vc.Capacity())
	}
	vc.Claim(topology.East)
	f := makePacketFlits(1, 1, topology.East)[0]
	f.ReadyAt = 10
	vc.PushFrom(f, topology.East)
	if f.ReadyAt != 12 {
		t.Fatalf("virtual-queuing penalty not applied: ReadyAt = %d", f.ReadyAt)
	}
}

func TestVCReadyAtGatesSwitch(t *testing.T) {
	vc := NewVC(0, 5)
	vc.Claim(topology.East)
	f := makePacketFlits(1, 1, topology.East)[0]
	f.ReadyAt = 5
	vc.PushFrom(f, topology.East)
	vc.GrantEject()
	if switchReady(vc, 4) {
		t.Error("flit must not be switch-ready before ReadyAt")
	}
	if !switchReady(vc, 5) {
		t.Error("flit must be switch-ready at ReadyAt")
	}
}

func TestOutVCBookCredits(t *testing.T) {
	b := NewOutVCBook(3, 4)
	if b.Credits(0) != 4 {
		t.Fatal("initial credits wrong")
	}
	b.EnqueueGrant(0, 9)
	if !b.MayStream(0, 9) {
		t.Fatal("sole grantee must be allowed to stream")
	}
	if b.MayStream(0, 8) {
		t.Fatal("non-grantee must not stream")
	}
	b.Send(0, false)
	b.Send(0, true)
	if b.Credits(0) != 2 {
		t.Fatalf("credits = %d, want 2", b.Credits(0))
	}
	if b.MayStream(0, 9) {
		t.Fatal("grant retired at tail send")
	}
	b.ReturnCredit(0)
	b.ReturnCredit(0)
	if b.Credits(0) != 4 {
		t.Fatal("credits did not return")
	}
}

func TestOutVCBookGrantOrdering(t *testing.T) {
	b := NewOutVCBook(1, 8)
	b.EnqueueGrant(0, 1)
	b.EnqueueGrant(0, 2)
	if b.MayStream(0, 2) {
		t.Fatal("younger grant must wait")
	}
	b.Send(0, true) // grantee 1's single-flit packet
	if !b.MayStream(0, 2) {
		t.Fatal("after elder's tail, younger streams")
	}
}

func TestOutVCBookCreditUnderflowPanics(t *testing.T) {
	b := NewOutVCBook(1, 1)
	b.EnqueueGrant(0, 0)
	b.Send(0, false)
	defer func() {
		if recover() == nil {
			t.Error("credit underflow should panic")
		}
	}()
	b.Send(0, false)
}

func TestOutVCBookSetDepth(t *testing.T) {
	b := NewOutVCBook(2, 5)
	b.SetDepth(1, 0)
	if b.Alive(1) {
		t.Error("zero-depth channel should be dead")
	}
	b.SetDepth(0, 1)
	if !b.Alive(0) || b.Credits(0) != 1 {
		t.Error("reduced-depth channel should stay alive with 1 credit")
	}
}

func TestVCStateMachineProperty(t *testing.T) {
	// Push/pop arbitrary well-formed packet sequences through a channel;
	// invariants: flit order preserved, states track packets, claims never
	// leak.
	f := func(sizes []uint8) bool {
		vc := NewVC(0, 64)
		var want []uint64
		id := uint64(1)
		admitted := 0
		for _, sz := range sizes {
			n := int(sz%4) + 1
			if admitted >= MaxPacketsPerChannel {
				break
			}
			if !vc.Claimable(topology.East) {
				break
			}
			vc.Claim(topology.East)
			admitted++
			for _, f := range makePacketFlits(id, n, topology.East) {
				if !vc.HasRoom() {
					return true // capacity reached; fine
				}
				vc.PushFrom(f, topology.East)
				want = append(want, id)
			}
			id++
		}
		for _, wantID := range want {
			f := vc.Pop()
			if f.PacketID != wantID {
				return false
			}
		}
		return idle(vc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVCPurgeClaims(t *testing.T) {
	// An unbacked claim fed over a severed link is released, making the
	// channel claimable from any side again.
	vc := NewVC(0, 8)
	vc.Claim(topology.West)
	if vc.Claimable(topology.North) {
		t.Fatal("claimed VC must reject other feeders")
	}
	vc.PurgeClaims(topology.West)
	if !vc.Claimable(topology.North) {
		t.Fatal("purged VC should accept any feeder")
	}

	// A claim backed by an admitted fragment survives the purge (the
	// fragment retires it through Pop/AbortFront); only the excess claim
	// of a head that never arrived is released.
	vc = NewVC(0, 8)
	vc.Claim(topology.West)
	vc.Claim(topology.West)
	for _, f := range makePacketFlits(1, 2, topology.East) {
		vc.PushFrom(f, topology.West)
	}
	vc.PurgeClaims(topology.West)
	if vc.Claimable(topology.North) {
		t.Fatal("purge must keep the claim backing the admitted fragment")
	}
	vc.Pop()
	vc.Pop() // tail retires the fragment and its claim
	if !vc.Claimable(topology.North) {
		t.Fatal("channel should be free once the fragment retires")
	}

	// A purge for a different link is a no-op.
	vc = NewVC(0, 8)
	vc.Claim(topology.South)
	vc.PurgeClaims(topology.West)
	if vc.Claimable(topology.North) {
		t.Fatal("purge of an unrelated link must not release the claim")
	}
}

// TestVCArenaLazyBuffers pins the memory-diet contract: an arena channel
// is born with nil backing arrays, allocates the flit queue at full depth
// and the packet-state array at a small starting capacity on the first
// push, and behaves identically to an eager channel afterwards.
func TestVCArenaLazyBuffers(t *testing.T) {
	var a VCArena
	vc := a.NewVC(2, 4)
	if vc.queue != nil || vc.states != nil {
		t.Fatal("arena channel should defer buffer allocation")
	}
	if !vc.Dormant() || !vc.Claimable(topology.East) {
		t.Fatal("lazy channel must act as an idle channel")
	}
	vc.Claim(topology.East)
	fl := makePacketFlits(1, 2, topology.East)
	vc.PushFrom(fl[0], topology.East)
	if cap(vc.queue) != 4 || cap(vc.states) != lazyStateCap {
		t.Fatalf("first push must allocate queue at depth, states at lazyStateCap: queue %d/%d, states %d/%d",
			cap(vc.queue), 4, cap(vc.states), lazyStateCap)
	}
	vc.PushFrom(fl[1], topology.East)
	if vc.Pop().PacketID != 1 || vc.Pop().PacketID != 1 || !idle(vc) {
		t.Fatal("arena channel FIFO broken")
	}
}

func TestVCArenaChunking(t *testing.T) {
	var a VCArena
	first := a.NewVC(0, 2)
	for i := 1; i < arenaChunk; i++ {
		a.NewVC(i, 2)
	}
	next := a.NewVC(arenaChunk, 2) // forces a fresh slab
	if first == next {
		t.Fatal("slab rollover returned an aliased channel")
	}
	if next.Index != arenaChunk || next.Depth != 2 || next.claimFeeder != topology.Invalid {
		t.Fatal("post-rollover channel not initialized")
	}
	defer func() {
		if recover() == nil {
			t.Error("arena NewVC with depth 0 should panic")
		}
	}()
	a.NewVC(0, 0)
}

// TestVCStateRejectsBadDirections: the first tick after a resume indexes
// per-port arrays with a packet state's directions, so a loaded direction
// the field cannot hold is corruption, not a later index panic.
func TestVCStateRejectsBadDirections(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*pktState)
	}{
		{"outPort", func(st *pktState) { st.outPort = 200 }},
		{"nextOut", func(st *pktState) { st.nextOut = 200 }},
		{"feeder", func(st *pktState) { st.feeder = 200 }},
	} {
		vc := NewVC(0, 4)
		vc.Claim(topology.East)
		vc.PushFrom(makePacketFlits(1, 1, topology.North)[0], topology.East)
		c.set(&vc.states[0])
		e := snapshot.NewEncoder()
		vc.State(e.Stream(), &flit.Codec{})
		d := frame(t, e)
		NewVC(0, 4).State(d.Stream(), &flit.Codec{})
		if err := d.Finish(); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s 200: load returned %v, want corruption", c.field, err)
		}
	}
}
