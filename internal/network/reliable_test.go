package network

import (
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/protocol"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// stormSchedule mixes the two fault classes the protocol must survive: a
// dense storm of non-critical (VC-level) faults, which break in-flight
// wormholes while the module keeps serving — the losses retransmission
// repairs — and a sparser storm of critical module faults, which kill
// routes outright and force the oracle-backed give-up path.
func stormSchedule(seed uint64) fault.Schedule {
	soft := fault.PoissonSchedule(fault.NonCritical, 40, 2500, 64, core.NumVCs, stats.NewRNG(seed^0x5707))
	hard := fault.PoissonSchedule(fault.Critical, 900, 2500, 64, core.NumVCs, stats.NewRNG(seed^0xdead))
	return fault.NewSchedule(append(soft.Events(), hard.Events()...))
}

// stormConfig is the chaos-soak scenario: an 8x8 RoCo mesh under uniform
// traffic with a Poisson storm of runtime faults, the reliability protocol
// armed with a short base timeout, and the conservation auditor running
// tightly throughout.
func stormConfig(seed uint64) Config {
	return Config{
		Topo:            topology.NewMesh(8, 8),
		Algorithm:       routing.XY,
		Build:           rocoBuilder,
		Traffic:         traffic.Config{Pattern: traffic.Uniform, Rate: 0.35, FlitsPerPacket: 4},
		WarmupPackets:   500,
		MeasurePackets:  4000,
		InactivityLimit: 4000,
		MaxCycles:       400_000,
		Seed:            seed,
		AuditEvery:      64,
		Schedule:        stormSchedule(seed),
		Reliable:        true,
		Protocol:        protocol.Params{Timeout: 64, MaxRetries: 16},
	}
}

// TestReliableFaultStormExactlyOnce is the acceptance criterion of the
// reliability layer: under a Poisson fault storm, every logical packet
// whose destination remains reachable is delivered exactly once, residual
// loss is exactly the set of packets the oracle proved undeliverable, and
// the flit-conservation auditor (running every 64 cycles) never fires.
func TestReliableFaultStormExactlyOnce(t *testing.T) {
	for _, seed := range []uint64{3, 21} {
		cfg := stormConfig(seed)
		n := New(cfg)
		res := n.Run()

		if len(res.FaultLog) < 5 {
			t.Fatalf("seed %d: storm installed only %d faults; scenario is too tame", seed, len(res.FaultLog))
		}
		if res.Watchdog != nil {
			t.Fatalf("seed %d: run did not drain under the protocol:\n%s", seed, res.Watchdog)
		}
		if res.Saturated {
			t.Fatalf("seed %d: run hit MaxCycles", seed)
		}

		// Non-vacuousness: the storm must have broken packets and the
		// protocol must have repaired some of them.
		if res.BrokenPackets == 0 || res.Retransmissions == 0 {
			t.Fatalf("seed %d: storm broke %d packets, protocol retransmitted %d — scenario is vacuous",
				seed, res.BrokenPackets, res.Retransmissions)
		}
		if res.RecoveredPackets == 0 {
			t.Errorf("seed %d: no packet was recovered by retransmission", seed)
		}

		// Exactly once: the ejection port never accepted a second tail.
		if res.DuplicatePackets != 0 {
			t.Errorf("seed %d: %d duplicate packet deliveries", seed, res.DuplicatePackets)
		}

		// Give-ups are sound: the protocol abandoned a packet only when the
		// fault map proves its destination unreachable (faults never heal,
		// so the oracle's end-of-run answer is authoritative for the whole
		// suffix of the run).
		for _, g := range res.GiveUps {
			if g.Reason != protocol.Unreachable {
				t.Errorf("seed %d: give-up %+v not proven unreachable", seed, g)
			}
			if ok, _ := n.oracle.Deliverable(g.Src, g.Dst); ok {
				t.Errorf("seed %d: gave up on %d->%d but the oracle says it is deliverable", seed, g.Src, g.Dst)
			}
		}

		// Zero residual loss beyond proven-unreachable packets, and every
		// reachable measured packet delivered: generated = delivered +
		// measured give-ups, with nothing left pending.
		if res.ResidualLoss != int64(len(res.GiveUps)) {
			t.Errorf("seed %d: residual loss %d != %d give-ups (packets left pending at exit)",
				seed, res.ResidualLoss, len(res.GiveUps))
		}
		var measuredGiveUps int64
		for _, g := range res.GiveUps {
			if g.Origin >= uint64(cfg.WarmupPackets) {
				measuredGiveUps++
			}
		}
		if got, want := res.Completion.Delivered, res.Completion.Generated-measuredGiveUps; got != want {
			t.Errorf("seed %d: delivered %d of %d generated with %d measured give-ups — %d reachable packets lost",
				seed, got, res.Completion.Generated, measuredGiveUps, want-got)
		}
	}
}

// TestReliableGatedMatchesReference extends the kernel bit-identity
// contract to protocol-enabled runs: retransmission timers, duplicate
// suppression, and give-up decisions must be deterministic and identical
// across the gated and reference kernels.
func TestReliableGatedMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 77} {
		ref := stormConfig(seed)
		ref.ReferenceKernel = true
		gated := stormConfig(seed)

		want := New(ref).Run()
		got := New(gated).Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: gated kernel diverged from reference with the protocol on\n gated: %+v\n   ref: %+v",
				seed, got.Summary, want.Summary)
		}
	}
}

// TestReliableOffIsBitIdenticalToSeed: with Reliable off, the protocol
// machinery must be completely inert — a run with the same seed produces
// the same Summary whether the field exists or not is unprovable here, but
// the run must report zero protocol activity.
func TestReliableOffReportsNothing(t *testing.T) {
	cfg := stormConfig(5)
	cfg.Reliable = false
	res := New(cfg).Run()
	if res.Retransmissions != 0 || res.RecoveredPackets != 0 || res.DuplicateFlits != 0 ||
		res.ResidualLoss != 0 || len(res.GiveUps) != 0 {
		t.Fatalf("protocol stats nonzero with Reliable off: %+v", res)
	}
	if dropSum(res.Drops) != res.DroppedFlits {
		t.Fatalf("drop breakdown %+v does not sum to DroppedFlits %d", res.Drops, res.DroppedFlits)
	}
}

// TestReliableRerouteFlipsDimensionOrder exercises fault-region rerouting
// under XY-YX: a fault cutting the XFirst path of a pending packet must
// make the retransmitted copy travel YFirst and deliver.
func TestReliableRerouteFlipsDimensionOrder(t *testing.T) {
	cfg := stormConfig(9)
	cfg.Algorithm = routing.XYYX
	n := New(cfg)
	res := n.Run()
	if res.Watchdog != nil {
		t.Fatalf("XYYX storm run did not drain:\n%s", res.Watchdog)
	}
	if res.Retransmissions == 0 {
		t.Fatalf("no retransmissions; rerouting path unexercised")
	}
	if res.DuplicatePackets != 0 {
		t.Errorf("%d duplicate deliveries under XYYX", res.DuplicatePackets)
	}
	for _, g := range res.GiveUps {
		if g.Reason != protocol.Unreachable {
			continue
		}
		if ok, _ := n.oracle.Deliverable(g.Src, g.Dst); ok {
			t.Errorf("gave up on %d->%d but a surviving dimension order exists", g.Src, g.Dst)
		}
	}
}

// TestReliableAdaptiveBounded: under minimal adaptive routing the oracle is
// conservative (any odd-even service-clean path counts as reachable), so
// give-ups may cite RetriesExhausted — but the run must still drain with
// zero duplicates and residual loss equal to its give-ups.
func TestReliableAdaptiveBounded(t *testing.T) {
	cfg := stormConfig(13)
	cfg.Algorithm = routing.Adaptive
	cfg.Build = func(id int, e *router.RouteEngine) router.Router { return core.New(id, e) }
	res := New(cfg).Run()
	if res.Watchdog != nil {
		t.Skipf("adaptive storm wedged (allowed: minimal routing hemmed in by faults): %s", res.Watchdog)
	}
	if res.DuplicatePackets != 0 {
		t.Errorf("%d duplicate deliveries under adaptive routing", res.DuplicatePackets)
	}
	if res.ResidualLoss != int64(len(res.GiveUps)) {
		t.Errorf("residual loss %d != %d give-ups", res.ResidualLoss, len(res.GiveUps))
	}
}
