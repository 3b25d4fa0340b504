package network

import (
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/telemetry"
	"github.com/rocosim/roco/internal/traffic"
)

// withTelemetry arms epoch sampling on a kernel-test configuration.
func withTelemetry(cfg Config, every int64) Config {
	cfg.TelemetryEvery = every
	cfg.TelemetryProfile = power.NewProfile(power.RoCoStructure())
	return cfg
}

// telemetryKernels enumerates the three execution strategies every
// telemetry contract must hold under.
var telemetryKernels = []struct {
	name  string
	apply func(*Config)
}{
	{"reference", func(c *Config) { c.ReferenceKernel = true }},
	{"gated", func(c *Config) {}},
	{"sharded", func(c *Config) { c.Shards = 4; c.Workers = 4 }},
}

// TestTelemetryDoesNotChangeResult is the observer-effect contract:
// enabling epoch sampling must leave every other Result field bit-identical
// to a telemetry-off run, on all three kernels. Telemetry reads event
// counters at barriers and snapshots VC occupancy read-only; any
// divergence here means sampling mutated simulation state.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	builders := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
	}{
		{"generic", genericBuilder},
		{"roco", rocoBuilder},
	}
	for _, b := range builders {
		b := b
		for _, k := range telemetryKernels {
			k := k
			for _, seed := range []uint64{1, 42} {
				seed := seed
				t.Run(b.name+"/"+k.name, func(t *testing.T) {
					t.Parallel()
					plain := kernelConfig(b.build, seed)
					k.apply(&plain)
					sampled := withTelemetry(kernelConfig(b.build, seed), 64)
					k.apply(&sampled)

					want := New(plain).Run()
					got := New(sampled).Run()
					if got.Telemetry == nil || len(got.Telemetry.Epochs) == 0 {
						t.Fatalf("seed %d: telemetry enabled but no epochs collected", seed)
					}
					got.Telemetry = nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: telemetry changed the Result\n  with: %+v\n  without: %+v",
							seed, got.Summary, want.Summary)
					}
				})
			}
		}
	}
}

// TestTelemetrySeriesKernelIndependent pins the stronger claim: the epoch
// stream itself — counters, occupancy snapshots, energy — is identical
// whichever kernel produced it, because sampling happens at cycle barriers
// where all kernels agree on every counter telemetry reads.
func TestTelemetrySeriesKernelIndependent(t *testing.T) {
	for _, seed := range []uint64{1, 99} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			series := make([]*telemetry.Series, len(telemetryKernels))
			for i, k := range telemetryKernels {
				cfg := withTelemetry(kernelConfig(rocoBuilder, seed), 128)
				k.apply(&cfg)
				series[i] = New(cfg).Run().Telemetry
			}
			for i := 1; i < len(series); i++ {
				if !reflect.DeepEqual(series[i], series[0]) {
					t.Fatalf("seed %d: %s kernel produced a different telemetry series than %s",
						seed, telemetryKernels[i].name, telemetryKernels[0].name)
				}
			}
		})
	}
}

// TestTelemetryReconcilesWithLedger cross-checks the epoch totals against
// the flit-conservation ledger the auditor runs on: summed over all epochs
// (the final partial one included), generated/delivered/dropped flits must
// equal the network's own genFlits/delFlitsAll/dropFlitsAll counts, and
// the per-epoch deltas must sum to the same totals.
func TestTelemetryReconcilesWithLedger(t *testing.T) {
	cfg := withTelemetry(kernelConfig(rocoBuilder, 7), 100)
	n := New(cfg)
	res := n.Run()

	tot := res.Telemetry.Totals
	if tot.Generated != n.genFlits || tot.Delivered != n.delFlitsAll || tot.Dropped != n.dropFlitsAll {
		t.Fatalf("telemetry totals diverge from conservation ledger: gen %d/%d del %d/%d drop %d/%d",
			tot.Generated, n.genFlits, tot.Delivered, n.delFlitsAll, tot.Dropped, n.dropFlitsAll)
	}
	if tot.Cycles != n.cycle {
		t.Fatalf("telemetry covered %d cycles, run took %d", tot.Cycles, n.cycle)
	}

	var gen, del, drop, cycles int64
	for i := range res.Telemetry.Epochs {
		e := &res.Telemetry.Epochs[i]
		gen += e.Generated
		del += e.Delivered
		drop += e.Dropped
		cycles += e.Cycles
	}
	if gen != tot.Generated || del != tot.Delivered || drop != tot.Dropped || cycles != tot.Cycles {
		t.Fatalf("epoch sums diverge from totals: gen %d/%d del %d/%d drop %d/%d cycles %d/%d",
			gen, tot.Generated, del, tot.Delivered, drop, tot.Dropped, cycles, tot.Cycles)
	}
	if gen == 0 || del == 0 {
		t.Fatal("reconciliation is vacuous: no flits counted")
	}
}

// TestTelemetryStepAllocsUnderLoad repeats the steady-state allocation
// guard with epoch sampling armed: the collector's ring and scratch are
// preallocated, so Step must stay within the same (amortised) budget as a
// telemetry-off run.
func TestTelemetryStepAllocsUnderLoad(t *testing.T) {
	cfg := withTelemetry(kernelConfig(genericBuilder, 3), 64)
	cfg.MeasurePackets = 1_000_000 // never stop generating during the probe
	n := New(cfg)
	for i := 0; i < 2000; i++ { // warm pools, worklists, and the epoch ring
		n.Step()
	}
	allocs := testing.AllocsPerRun(500, func() { n.Step() })
	if allocs > 1 {
		t.Fatalf("loaded Step with telemetry allocates %v objects per cycle, want <= 1 amortised", allocs)
	}
}

// TestTelemetryStepZeroAllocsWhenIdle extends the idle clock-gating guard:
// even with an epoch closing every 8 cycles, an idle network's Step must
// not allocate.
func TestTelemetryStepZeroAllocsWhenIdle(t *testing.T) {
	cfg := withTelemetry(smokeConfig(routing.XY, traffic.Uniform, 0, 5), 8)
	cfg.Traffic.Rate = 0
	n := New(cfg)
	for i := 0; i < 64; i++ {
		n.Step()
	}
	allocs := testing.AllocsPerRun(200, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("idle Step with telemetry allocates %v objects per cycle, want 0", allocs)
	}
}
