package flit

import (
	"fmt"

	"github.com/rocosim/roco/internal/topology"
)

// Pool is a free list of Flit structs. The simulation kernel allocates
// every flit of every packet and discards it on delivery or drop; at any
// instant only the in-flight population is live, so recycling dead flits
// makes the steady-state hot path allocation-free after warm-up.
//
// Lifetime rule: a flit handed to Put must be completely dead — no router
// buffer, pipe, source backlog, or trace record may still reference it.
// Put scrubs the struct (including its Rec pointer, so a recycled flit can
// never resurrect another packet's trace) and panics on double-insertion.
// The network defers Put to the end of the cycle in which the flit died,
// because delivery and drop sinks run mid-cycle while callers still hold
// the pointer. A nil *Pool is valid and degrades to plain allocation,
// which the reference kernel uses to preserve pre-pooling behavior.
type Pool struct {
	free []*Flit
}

// slabSize is the number of flits a dry pool allocates at once. Under
// sustained load (most visibly at saturation, where the in-flight
// population keeps growing) the pool would otherwise fall back to one heap
// allocation per flit; refilling from a slab amortizes that to one
// allocation per slabSize flits, which rounds to zero allocations per
// simulated cycle.
const slabSize = 256

// Get returns a zeroed flit, recycled when the free list has one and drawn
// from a freshly allocated slab otherwise.
func (p *Pool) Get() *Flit {
	if p == nil {
		return &Flit{}
	}
	if len(p.free) == 0 {
		slab := make([]Flit, slabSize)
		if cap(p.free) < slabSize {
			p.free = make([]*Flit, 0, slabSize)
		}
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	f.pooled = false
	return f
}

// Put recycles a dead flit. It scrubs every field so stale routing state
// and trace references cannot leak into the flit's next life.
func (p *Pool) Put(f *Flit) {
	if p == nil {
		return
	}
	if f.pooled {
		panic(fmt.Sprintf("flit: double recycle of pkt=%d seq=%d", f.PacketID, f.Seq))
	}
	*f = Flit{pooled: true}
	p.free = append(p.free, f)
}

// AppendSegment expands the packet into its flits and appends them to
// dst, drawing the structs from pool (nil pool allocates fresh). The head
// flit carries the packet's routing state; OutPort and VC are left
// Invalid/-1 for the source PE to fill in at injection time.
func AppendSegment(dst []*Flit, p Packet, pool *Pool) []*Flit {
	if p.Flits < 1 {
		panic(fmt.Sprintf("flit: packet %d has %d flits; need at least 1", p.ID, p.Flits))
	}
	for i := 0; i < p.Flits; i++ {
		t := Body
		switch {
		case p.Flits == 1:
			t = HeadTail
		case i == 0:
			t = Head
		case i == p.Flits-1:
			t = Tail
		}
		f := pool.Get()
		f.Type = t
		f.PacketID = p.ID
		f.Seq = i
		f.Src = p.Src
		f.Dst = p.Dst
		f.Mode = p.Mode
		f.OutPort = topology.Invalid
		f.VC = -1
		f.CreatedAt = p.CreatedAt
		f.SrcSeq = p.SrcSeq
		f.Origin = p.Origin
		dst = append(dst, f)
	}
	return dst
}
