package network

import (
	"testing"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/traffic"
)

// checkOrder returns build with the delivery sink of the engine it
// receives intercepted, before the first router is built, to assert
// wormhole integrity: every packet's flits arrive in sequence order with
// no interleaving gaps, and the tail arrives exactly once. seen counts
// each packet's delivered flits.
func checkOrder(t *testing.T, seen map[uint64]int, build func(int, *router.RouteEngine) router.Router) func(int, *router.RouteEngine) router.Router {
	return func(id int, e *router.RouteEngine) router.Router {
		if id == 0 {
			deliver := e.Deliver
			e.Deliver = func(node int, f *flit.Flit, cycle int64) {
				want := seen[f.PacketID]
				if f.Seq != want {
					t.Errorf("pkt %d: flit seq %d delivered, want %d (flit order violated)", f.PacketID, f.Seq, want)
				}
				seen[f.PacketID] = want + 1
				deliver(node, f, cycle)
			}
		}
		return build(id, e)
	}
}

// TestWormholeFlitOrdering asserts per-packet flit order end to end for
// every router architecture at a load high enough to force channel
// multiplexing and back-to-back reallocation.
func TestWormholeFlitOrdering(t *testing.T) {
	for name, build := range allBuilders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			seen := map[uint64]int{}
			cfg := smokeConfig(routing.XY, traffic.Uniform, 0.30, 61)
			cfg.MeasurePackets = 4000
			cfg.Build = checkOrder(t, seen, build)
			res := New(cfg).Run()
			if res.Summary.Completion != 1 {
				t.Fatalf("completion %.3f", res.Summary.Completion)
			}
			// Every completed packet saw exactly 4 flits.
			for pkt, n := range seen {
				if n != 4 {
					t.Fatalf("pkt %d delivered %d flits, want 4", pkt, n)
				}
			}
		})
	}
}

// TestWormholeFlitOrderingPDR repeats the check for the PDR extension
// (XY only), whose internal transfer channel re-buffers flits mid-router.
func TestWormholeFlitOrderingPDR(t *testing.T) {
	seen := map[uint64]int{}
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0.25, 62)
	cfg.MeasurePackets = 3000
	cfg.Build = checkOrder(t, seen, pdrBuilder)
	res := New(cfg).Run()
	if res.Summary.Completion != 1 {
		t.Fatalf("completion %.3f", res.Summary.Completion)
	}
}
