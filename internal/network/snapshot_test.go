package network

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
	"github.com/rocosim/roco/internal/traffic"
)

// ckptConfig is the checkpoint-equivalence workload: an 8x8 mesh under a
// Poisson runtime-fault schedule with tracing, telemetry, and audits all
// armed, so a resumed run must reproduce every observable series — not
// just the summary numbers.
func ckptConfig(build func(int, *router.RouteEngine) router.Router, seed uint64, reliable bool) Config {
	return Config{
		Topo:            topology.NewMesh(8, 8),
		Algorithm:       routing.XY,
		Build:           build,
		Traffic:         traffic.Config{Pattern: traffic.Uniform, Rate: 0.15, FlitsPerPacket: 4},
		WarmupPackets:   200,
		MeasurePackets:  1500,
		InactivityLimit: 1500,
		MaxCycles:       400_000,
		Seed:            seed,
		AuditEvery:      64,
		TelemetryEvery:  128,
		TraceEvery:      7,
		Reliable:        reliable,
		Schedule:        fault.PoissonSchedule(fault.NonCritical, 60, 400, 64, core.NumVCs, stats.NewRNG(seed^0xfa17)),
	}
}

// checkpointCycle is where the equivalence runs snapshot: past warm-up and
// the first fault installations, well before drain.
const checkpointCycle = 100

// runCheckpointed runs cfg to completion, snapshotting at checkpointCycle
// on the way, and returns the result, the traces, and the snapshot frame.
func runCheckpointed(t *testing.T, cfg Config) (Result, []*trace.Record, []byte) {
	t.Helper()
	n := New(cfg)
	var frame bytes.Buffer
	res, interrupted := n.RunHooked(func() bool {
		if n.Cycle() == checkpointCycle {
			e := snapshot.NewEncoder()
			n.SaveState(e)
			if _, err := e.WriteTo(&frame); err != nil {
				t.Fatalf("writing snapshot frame: %v", err)
			}
		}
		return false
	})
	if interrupted {
		t.Fatal("RunHooked reported an interruption with a non-stopping hook")
	}
	if frame.Len() == 0 {
		t.Fatalf("run finished in %d cycles, before checkpoint cycle %d", res.TotalCycles, checkpointCycle)
	}
	return res, n.Traces(), frame.Bytes()
}

// resume restores a snapshot frame under cfg and runs it to completion.
func resume(t *testing.T, cfg Config, frame []byte) (Result, []*trace.Record) {
	t.Helper()
	d, err := snapshot.Read(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("reading snapshot frame: %v", err)
	}
	n, err := Restore(cfg, d)
	if err != nil {
		t.Fatalf("restoring network: %v", err)
	}
	return n.Run(), n.Traces()
}

// TestCheckpointResumeEquivalence is the bit-identity contract of
// checkpoint/resume: for both kernels, several shard/worker shapes, and
// both Reliable modes, a run that snapshots mid-flight must (a) finish
// identically to one that never snapshots, and (b) a network restored
// from that snapshot must finish identically too — Result, fault log,
// telemetry series, and packet traces all bit-equal. The "soa" rows keep
// their names from when the bitset kernel was opt-in; they now run the
// gated kernel with shards ticked inline on the coordinator, and with
// uneven shards on fewer workers than shards.
func TestCheckpointResumeEquivalence(t *testing.T) {
	kernels := []struct {
		name  string
		apply func(*Config)
	}{
		{"reference", func(c *Config) { c.ReferenceKernel = true }},
		{"gated", func(c *Config) { c.Shards = 1 }},
		{"sharded", func(c *Config) { c.Shards = 4; c.Workers = 4 }},
		{"soa", func(c *Config) { c.Shards = 2; c.Workers = 1 }},
		{"soa-sharded", func(c *Config) { c.Shards = 3; c.Workers = 2 }},
	}
	for _, reliable := range []bool{false, true} {
		for _, k := range kernels {
			k, reliable := k, reliable
			name := k.name
			if reliable {
				name += "/reliable"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const seed = 41
				base := ckptConfig(rocoBuilder, seed, reliable)
				k.apply(&base)
				n0 := New(base)
				want := n0.Run()
				wantTraces := n0.Traces()
				if len(want.FaultLog) == 0 {
					t.Fatal("fault schedule installed no faults; test is vacuous")
				}
				if want.TotalCycles <= checkpointCycle {
					t.Fatalf("run too short (%d cycles) to checkpoint at %d", want.TotalCycles, checkpointCycle)
				}

				got, gotTraces, frame := runCheckpointed(t, base)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("snapshotting mid-run perturbed the results\n got: %+v\nwant: %+v", got.Summary, want.Summary)
				}
				if !reflect.DeepEqual(gotTraces, wantTraces) {
					t.Fatal("snapshotting mid-run perturbed the packet traces")
				}

				resumed, resumedTraces := resume(t, base, frame)
				if !reflect.DeepEqual(resumed, want) {
					t.Fatalf("resumed run diverged from uninterrupted run\n resumed: %+v\n    want: %+v", resumed.Summary, want.Summary)
				}
				if !reflect.DeepEqual(resumedTraces, wantTraces) {
					t.Fatal("resumed run diverged on packet traces")
				}
			})
		}
	}
}

// TestCheckpointCrossKernelResume pins the kernel-canonical property of
// the byte stream: a snapshot taken under one kernel resumes under any
// other with bit-identical results (the settle-before-save normalization
// erases which routers were dormant).
func TestCheckpointCrossKernelResume(t *testing.T) {
	const seed = 17
	ref := ckptConfig(rocoBuilder, seed, true)
	ref.ReferenceKernel = true
	want := New(ref).Run()
	if len(want.FaultLog) == 0 {
		t.Fatal("fault schedule installed no faults; test is vacuous")
	}
	_, _, frame := runCheckpointed(t, ref)

	for _, k := range []struct {
		name  string
		apply func(*Config)
	}{
		{"gated", func(c *Config) { c.ReferenceKernel = false; c.Shards = 1 }},
		{"sharded", func(c *Config) { c.ReferenceKernel = false; c.Shards = 4; c.Workers = 4 }},
	} {
		cfg := ckptConfig(rocoBuilder, seed, true)
		k.apply(&cfg)
		resumed, _ := resume(t, cfg, frame)
		if !reflect.DeepEqual(resumed, want) {
			t.Fatalf("%s resume of a reference-kernel snapshot diverged\n resumed: %+v\n    want: %+v",
				k.name, resumed.Summary, want.Summary)
		}
	}

	// And the reverse direction: sharded snapshot, reference resume.
	sh := ckptConfig(rocoBuilder, seed, true)
	sh.Shards = 4
	sh.Workers = 4
	_, _, frame = runCheckpointed(t, sh)
	resumed, _ := resume(t, ref, frame)
	if !reflect.DeepEqual(resumed, want) {
		t.Fatalf("reference resume of a sharded snapshot diverged\n resumed: %+v\n    want: %+v",
			resumed.Summary, want.Summary)
	}

	// Sequential gated snapshot, reference resume: the settle-before-save
	// plus the derived (never serialized) busy masks keep the byte stream
	// identical to the reference kernel's.
	_, _, frame = runCheckpointed(t, ckptConfig(rocoBuilder, seed, true))
	resumed, _ = resume(t, ref, frame)
	if !reflect.DeepEqual(resumed, want) {
		t.Fatalf("reference resume of a gated snapshot diverged\n resumed: %+v\n    want: %+v",
			resumed.Summary, want.Summary)
	}
}

// TestCheckpointAllRouterKinds runs the save/resume equivalence across
// every router microarchitecture (each has its own serialized layout).
func TestCheckpointAllRouterKinds(t *testing.T) {
	builders := []struct {
		name  string
		build func(int, *router.RouteEngine) router.Router
	}{
		{"generic", genericBuilder},
		{"pathsensitive", psBuilder},
		{"roco", rocoBuilder},
		{"pdr", pdrBuilder},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			cfg := ckptConfig(b.build, 29, true)
			cfg.Shards = 2
			cfg.Workers = 2
			want := New(cfg).Run()
			_, _, frame := runCheckpointed(t, cfg)
			resumed, _ := resume(t, cfg, frame)
			if !reflect.DeepEqual(resumed, want) {
				t.Fatalf("%s resumed run diverged\n resumed: %+v\n    want: %+v", b.name, resumed.Summary, want.Summary)
			}
		})
	}
}

// TestCheckpointResumeRejectsWrongConfig pins the semantic-validation
// paths: a snapshot loaded under a structurally different configuration
// must poison the decoder with a typed corruption error, not resume into
// silently wrong state.
func TestCheckpointResumeRejectsWrongConfig(t *testing.T) {
	cfg := ckptConfig(rocoBuilder, 7, true)
	_, _, frame := runCheckpointed(t, cfg)

	mutations := []struct {
		name  string
		apply func(*Config)
	}{
		{"smaller mesh", func(c *Config) {
			c.Topo = topology.NewMesh(4, 4)
			c.Schedule = fault.PoissonSchedule(fault.NonCritical, 60, 400, 16, core.NumVCs, stats.NewRNG(7^0xfa17))
		}},
		{"protocol off", func(c *Config) { c.Reliable = false }},
		{"telemetry off", func(c *Config) { c.TelemetryEvery = 0 }},
		{"no fault schedule", func(c *Config) { c.Schedule = fault.Schedule{} }},
		{"different workload", func(c *Config) { c.Traffic.Pattern = traffic.SelfSimilar }},
	}
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			bad := ckptConfig(rocoBuilder, 7, true)
			m.apply(&bad)
			d, err := snapshot.Read(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("reading snapshot frame: %v", err)
			}
			if _, err := Restore(bad, d); err == nil {
				t.Fatal("restore under a mismatched configuration succeeded")
			}
		})
	}
}
