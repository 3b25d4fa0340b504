package network

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/protocol"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// TestRandomizedConfigurations drives many random (router, algorithm,
// traffic, rate, mesh, packet size, faults) combinations and checks global
// invariants on each: the run terminates, flits are conserved (delivered +
// dropped + in-flight accounts for everything injected), and a fault-free
// run completes fully. This is the repository's broad-spectrum regression
// net: any protocol violation surfaces as a panic or an invariant failure.
func TestRandomizedConfigurations(t *testing.T) {
	rng := stats.NewRNG(20260704)
	builders := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
		xy    bool // XY only (PDR)
	}{
		{"generic", genericBuilder, false},
		{"pathsensitive", psBuilder, false},
		{"roco", rocoBuilder, false},
		{"pdr", pdrBuilder, true},
	}
	patterns := []traffic.Pattern{traffic.Uniform, traffic.Transpose, traffic.SelfSimilar, traffic.BitComplement, traffic.Hotspot}

	const trials = 60
	for trial := 0; trial < trials; trial++ {
		b := builders[rng.Intn(len(builders))]
		alg := routing.Algorithms[rng.Intn(3)]
		if b.xy {
			alg = routing.XY
		}
		pattern := patterns[rng.Intn(len(patterns))]
		rate := 0.05 + 0.25*rng.Float64()
		w := 3 + rng.Intn(5)
		h := 3 + rng.Intn(5)
		flits := 1 + rng.Intn(6)
		var faults []fault.Fault
		withFaults := rng.Bernoulli(0.4)
		if withFaults {
			class := fault.Critical
			if rng.Bernoulli(0.5) {
				class = fault.NonCritical
			}
			faults = fault.RandomSet(class, 1+rng.Intn(2), w*h, 12, rng)
		}

		name := fmt.Sprintf("%02d-%s-%s-%s-%dx%d-f%d-flt%d",
			trial, b.name, alg, pattern, w, h, flits, len(faults))
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Topo:      topology.NewMesh(w, h),
				Algorithm: alg,
				Build:     b.build,
				Traffic: traffic.Config{
					Pattern: pattern, Rate: rate, FlitsPerPacket: flits,
					HotspotNode: rng.Intn(w * h), HotspotFraction: 0.25,
				},
				WarmupPackets:   100,
				MeasurePackets:  800,
				Faults:          faults,
				InactivityLimit: 1200,
				MaxCycles:       600_000,
				Seed:            rng.Uint64(),
			}
			res := New(cfg).Run()

			if !withFaults && !res.Saturated && res.Summary.Completion != 1 {
				t.Fatalf("fault-free unsaturated run lost traffic: %.3f", res.Summary.Completion)
			}
			// Flit conservation: every measured delivered flit crossed the
			// crossbars it claims; grants match traversals.
			a := res.Activity
			if a.SAGrants != a.CrossbarTraversals {
				t.Fatalf("grants %d != traversals %d", a.SAGrants, a.CrossbarTraversals)
			}
			if a.VAGrants > a.VAOps {
				t.Fatal("more VA grants than attempts")
			}
			if res.Summary.Completion > 1.0001 {
				t.Fatalf("completion %v exceeds 1", res.Summary.Completion)
			}
		})
	}
}

// FuzzDynamicFaults fuzzes the runtime fault-injection path: a random
// fault schedule strikes a live network mid-run, with the conservation
// auditor armed on a tight interval. Whatever the schedule, a run must
// terminate — either drained or with a watchdog report — and every
// generated flit must stay accounted for (the audit panics otherwise).
// Odd rel bytes run with the reliable-delivery protocol on, under a
// rel-derived base timeout, checking its invariants too: no duplicate
// deliveries, and residual loss exactly the give-up count when drained.
// The shard count (1-4) is fuzzed alongside; every multi-shard run is
// additionally replayed at Shards=1 and must match it bit for bit. (Bit 1
// of ckpt once chose between two gated kernels and is now unused, so the
// committed corpus keeps its meaning.) Odd ckpt bytes additionally replay
// the run with a snapshot taken mid-run and a resume from it: both the
// snapshotting run and the resumed run must reproduce the uninterrupted
// Result exactly, whatever fault schedule the fuzzer strikes the network
// with.
func FuzzDynamicFaults(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(300), uint8(27), uint8(3), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(7), uint8(2), uint16(50), uint8(5), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(42), uint8(1), uint16(900), uint8(0), uint8(5), uint8(3), uint8(2), uint8(3))
	f.Add(uint64(99), uint8(3), uint16(1), uint8(15), uint8(2), uint8(129), uint8(3), uint8(255))
	// Reliable runs that wedge with a deliverable flow stuck: generic with
	// VA faults at nodes 4 and 10, PDR with an RC fault at node 7, and
	// path-sensitive with a MUX/DEMUX fault at node 5. None of their
	// watchdog reports holds a wait-for cycle.
	f.Add(uint64(33), uint8(0x10), uint16(214), uint8(4), uint8(0x80), uint8(1), uint8(0xf9), uint8(0x90))
	f.Add(uint64(7), uint8(0x77), uint16(41), uint8(7), uint8(0), uint8(0x3d), uint8(0x13), uint8(0x1a))
	f.Add(uint64(170), uint8(0xf5), uint16(194), uint8(0x25), uint8(5), uint8(5), uint8(0x2a), uint8(0x0f))

	builders := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
		alg   routing.Algorithm
	}{
		{"generic", genericBuilder, routing.XY},
		{"pathsensitive", psBuilder, routing.Adaptive},
		{"roco", rocoBuilder, routing.Adaptive},
		{"pdr", pdrBuilder, routing.XY},
	}

	f.Fuzz(func(t *testing.T, seed uint64, builder uint8, faultCycle uint16, node uint8, comp uint8, rel uint8, shards uint8, ckpt uint8) {
		b := builders[int(builder)%len(builders)]
		const w, h = 4, 4
		rng := stats.NewRNG(seed)
		events := []fault.Event{{
			Cycle: int64(faultCycle),
			Fault: fault.Fault{
				Node:      int(node) % (w * h),
				Component: fault.AllComponents()[int(comp)%len(fault.AllComponents())],
				Module:    fault.Module(rng.Uint64() % 2),
				VC:        int(rng.Uint64() % 12),
			},
		}}
		// Sometimes pile on a second fault at a distinct node later in the run.
		if seed%3 == 0 {
			second := events[0].Fault
			second.Node = (second.Node + 1 + int(rng.Uint64()%uint64(w*h-1))) % (w * h)
			events = append(events, fault.Event{Cycle: events[0].Cycle + 64, Fault: second})
		}

		cfg := Config{
			Topo:      topology.NewMesh(w, h),
			Algorithm: b.alg,
			Build:     b.build,
			Traffic: traffic.Config{
				Pattern: traffic.Uniform, Rate: 0.05 + 0.2*rng.Float64(), FlitsPerPacket: 1 + int(rng.Uint64()%6),
			},
			WarmupPackets:   100,
			MeasurePackets:  600,
			InactivityLimit: 800,
			MaxCycles:       300_000,
			Seed:            rng.Uint64(),
			AuditEvery:      16,
			Schedule:        fault.NewSchedule(events),
		}
		if rel%2 == 1 {
			cfg.Reliable = true
			cfg.Protocol = protocol.Params{Timeout: 16 + int64(rel)}
		}
		cfg.Shards = 1 + int(shards)%4
		cfg.Workers = cfg.Shards
		res := New(cfg).Run()

		if cfg.Shards > 1 {
			serial := cfg
			serial.Shards = 1
			serial.Workers = 1
			if want := New(serial).Run(); !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: Shards=%d diverged from Shards=1\n sharded: %+v\n  serial: %+v",
					b.name, cfg.Shards, res.Summary, want.Summary)
			}
		}

		if ckpt%2 == 1 {
			// Replay with a snapshot taken mid-run (the fuzzer picks the
			// cycle), then resume from it; neither may perturb the Result.
			snapCycle := 25 + int64(ckpt)
			n := New(cfg)
			var frame bytes.Buffer
			ckptRes, _ := n.RunHooked(func() bool {
				if n.Cycle() == snapCycle {
					e := snapshot.NewEncoder()
					n.SaveState(e)
					if _, err := e.WriteTo(&frame); err != nil {
						t.Fatalf("%s: writing snapshot frame: %v", b.name, err)
					}
				}
				return false
			})
			if !reflect.DeepEqual(ckptRes, res) {
				t.Fatalf("%s: snapshotting at cycle %d perturbed the run\n got: %+v\nwant: %+v",
					b.name, snapCycle, ckptRes.Summary, res.Summary)
			}
			if frame.Len() > 0 { // run may legitimately end before snapCycle
				d, err := snapshot.Read(bytes.NewReader(frame.Bytes()))
				if err != nil {
					t.Fatalf("%s: reading snapshot frame: %v", b.name, err)
				}
				rn := New(cfg)
				rn.LoadState(d)
				if err := d.Finish(); err != nil {
					t.Fatalf("%s: restoring snapshot: %v", b.name, err)
				}
				if resumed := rn.Run(); !reflect.DeepEqual(resumed, res) {
					t.Fatalf("%s: run resumed from cycle %d diverged\n resumed: %+v\n    want: %+v",
						b.name, snapCycle, resumed.Summary, res.Summary)
				}
			}
		}

		if res.Saturated {
			t.Fatalf("%s: run hit MaxCycles instead of draining or watchdogging", b.name)
		}
		if res.Summary.Completion > 1.0001 {
			t.Fatalf("%s: completion %v exceeds 1", b.name, res.Summary.Completion)
		}
		if res.Watchdog != nil && res.Watchdog.String() == "" {
			t.Fatalf("%s: watchdog fired with an empty diagnostic", b.name)
		}
		if res.Watchdog == nil && res.DroppedFlits == 0 && len(res.FaultLog) > 0 &&
			res.Summary.Completion < 1 && !res.Saturated {
			t.Fatalf("%s: lost traffic without dropping or wedging", b.name)
		}
		if cfg.Reliable {
			if res.DuplicatePackets != 0 {
				t.Fatalf("%s: %d duplicate deliveries under the protocol", b.name, res.DuplicatePackets)
			}
			if res.Watchdog == nil && res.ResidualLoss != int64(len(res.GiveUps)) {
				t.Fatalf("%s: drained with residual loss %d != %d give-ups",
					b.name, res.ResidualLoss, len(res.GiveUps))
			}
		}
	})
}
