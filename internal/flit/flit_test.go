package flit

import (
	"testing"
	"testing/quick"

	"github.com/rocosim/roco/internal/topology"
)

func TestTypePredicates(t *testing.T) {
	if !Head.IsHead() || Head.IsTail() {
		t.Error("Head flags wrong")
	}
	if Body.IsHead() || Body.IsTail() {
		t.Error("Body flags wrong")
	}
	if Tail.IsHead() || !Tail.IsTail() {
		t.Error("Tail flags wrong")
	}
	if !HeadTail.IsHead() || !HeadTail.IsTail() {
		t.Error("HeadTail flags wrong")
	}
}

func TestSegmentFourFlits(t *testing.T) {
	p := Packet{ID: 7, Src: 1, Dst: 9, Flits: 4, CreatedAt: 100, Mode: YFirst}
	fl := AppendSegment(nil, p, nil)
	if len(fl) != 4 {
		t.Fatalf("got %d flits", len(fl))
	}
	wantTypes := []Type{Head, Body, Body, Tail}
	for i, f := range fl {
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type %v, want %v", i, f.Type, wantTypes[i])
		}
		if f.PacketID != 7 || f.Src != 1 || f.Dst != 9 || f.CreatedAt != 100 || f.Mode != YFirst || f.Seq != i {
			t.Errorf("flit %d fields wrong: %+v", i, f)
		}
		if f.OutPort != topology.Invalid || f.VC != -1 {
			t.Errorf("flit %d routing state should be unset", i)
		}
	}
}

func TestSegmentSingleFlit(t *testing.T) {
	fl := AppendSegment(nil, Packet{ID: 1, Flits: 1}, nil)
	if len(fl) != 1 || fl[0].Type != HeadTail {
		t.Fatalf("single-flit packet should be one HeadTail, got %v", fl)
	}
}

func TestSegmentInvariants(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%16) + 1
		fl := AppendSegment(nil, Packet{ID: 3, Flits: count}, nil)
		if len(fl) != count {
			return false
		}
		heads, tails := 0, 0
		for _, f := range fl {
			if f.Type.IsHead() {
				heads++
			}
			if f.Type.IsTail() {
				tails++
			}
		}
		// Exactly one head and one tail per packet, head first, tail last.
		return heads == 1 && tails == 1 && fl[0].Type.IsHead() && fl[count-1].Type.IsTail()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentZeroFlitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendSegment of an empty packet should panic")
		}
	}()
	AppendSegment(nil, Packet{Flits: 0}, nil)
}

func TestRouteModeStrings(t *testing.T) {
	if XFirst.String() != "XY" || YFirst.String() != "YX" || ModeAdaptive.String() != "AD" {
		t.Error("RouteMode strings wrong")
	}
}
