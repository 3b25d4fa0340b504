package roco

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// ckptTestConfig is a small but fully armed run: runtime faults, the
// reliability protocol, telemetry and audits, so snapshots carry every
// state family.
func ckptTestConfig() Config {
	return Config{
		Width: 8, Height: 8,
		Router: RoCo, Algorithm: XY, Traffic: Uniform,
		InjectionRate:   0.2,
		WarmupPackets:   100,
		MeasurePackets:  800,
		Seed:            9,
		Reliable:        true,
		TelemetryEvery:  64,
		AuditEvery:      64,
		InactivityLimit: 1500,
		FaultSchedule:   PoissonFaultSchedule(NonCriticalFaults, 60, 300, 8, 8, 5),
	}
}

// TestRunCheckpointedMatchesRun is the public-API equivalence contract:
// periodic snapshots never perturb a run, and resuming from any of them
// finishes with the identical Result.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	cfg := ckptTestConfig()
	want := Run(cfg)
	if len(want.FaultEvents) == 0 {
		t.Fatal("fault schedule installed no faults; test is vacuous")
	}

	dir := t.TempDir()
	got, interrupted, err := NewSim(cfg).RunCheckpointed(CheckpointOptions{Every: 50, Dir: dir})
	if err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	if interrupted {
		t.Fatal("RunCheckpointed reported an interruption without a Stop channel")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("periodic snapshots perturbed the run\n got: %v\nwant: %v", got, want)
	}

	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.rocosnap"))
	if err != nil || len(names) < 2 {
		t.Fatalf("expected several snapshot files, got %v (err %v)", names, err)
	}
	sort.Strings(names)

	// Resume from the earliest snapshot (most of the run left to replay)
	// and from the latest (via ResumeLatest): both must finish identically.
	f, err := os.Open(names[0])
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Resume(f, cfg)
	f.Close()
	if err != nil {
		t.Fatalf("resuming earliest snapshot: %v", err)
	}
	if res := sim.Run(); !reflect.DeepEqual(res, want) {
		t.Fatalf("run resumed from earliest snapshot diverged\n got: %v\nwant: %v", res, want)
	}

	sim, err = ResumeLatest(dir, cfg)
	if err != nil {
		t.Fatalf("ResumeLatest: %v", err)
	}
	if res := sim.Run(); !reflect.DeepEqual(res, want) {
		t.Fatalf("run resumed from latest snapshot diverged\n got: %v\nwant: %v", res, want)
	}
}

// TestRunCheckpointedStopFlushesResumableSnapshot models the signal
// path: a Stop request ends the run early after flushing a snapshot,
// and resuming that snapshot completes the run bit-identically.
func TestRunCheckpointedStopFlushesResumableSnapshot(t *testing.T) {
	cfg := ckptTestConfig()
	want := Run(cfg)

	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop) // stop at the very first cycle boundary
	_, interrupted, err := NewSim(cfg).RunCheckpointed(CheckpointOptions{Dir: dir, Stop: stop})
	if err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	if !interrupted {
		t.Fatal("Stop channel did not interrupt the run")
	}

	sim, err := ResumeLatest(dir, cfg)
	if err != nil {
		t.Fatalf("ResumeLatest after interrupt: %v", err)
	}
	if res := sim.Run(); !reflect.DeepEqual(res, want) {
		t.Fatalf("run resumed after interrupt diverged\n got: %v\nwant: %v", res, want)
	}
}

// TestSnapshotTruncationEveryByte is the kill-mid-write contract: a
// snapshot cut at every possible byte boundary must surface as a typed
// corruption error — never a panic, never a silently wrong resume.
func TestSnapshotTruncationEveryByte(t *testing.T) {
	cfg := Config{
		Width: 4, Height: 4,
		Router: RoCo, Algorithm: XY, Traffic: Uniform,
		InjectionRate: 0.2,
		WarmupPackets: 10, MeasurePackets: 50,
		Seed: 3,
	}
	var frame bytes.Buffer
	if err := NewSim(cfg).Checkpoint(&frame); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	full := frame.Bytes()

	if _, err := Resume(bytes.NewReader(full), cfg); err != nil {
		t.Fatalf("resuming the untruncated frame: %v", err)
	}
	for k := 0; k < len(full); k++ {
		_, err := Resume(bytes.NewReader(full[:k]), cfg)
		if err == nil {
			t.Fatalf("truncation at byte %d of %d resumed successfully", k, len(full))
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at byte %d: got %v, want ErrCorruptSnapshot", k, err)
		}
	}

	// A flipped payload byte (bit rot, torn sector) must fail the
	// checksum the same way.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Resume(bytes.NewReader(flipped), cfg); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("flipped byte: got %v, want ErrCorruptSnapshot", err)
	}
}

// TestResumeLatestFallsBackPastTornSnapshot pins crash recovery: when
// the newest snapshot file is torn (the writer was killed mid-write),
// ResumeLatest must fall back to the previous valid one; when nothing
// valid remains, it must return ErrNoSnapshot.
func TestResumeLatestFallsBackPastTornSnapshot(t *testing.T) {
	cfg := ckptTestConfig()
	want := Run(cfg)

	dir := t.TempDir()
	if _, _, err := NewSim(cfg).RunCheckpointed(CheckpointOptions{Every: 50, Dir: dir}); err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.rocosnap"))
	if len(names) < 2 {
		t.Fatalf("need at least two snapshots, got %d", len(names))
	}
	sort.Strings(names)

	// Tear the newest file in half, simulating a kill mid-write that
	// bypassed the atomic-rename protocol (e.g. a torn sector).
	newest := names[len(names)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	sim, err := ResumeLatest(dir, cfg)
	if err != nil {
		t.Fatalf("ResumeLatest with torn newest: %v", err)
	}
	if res := sim.Run(); !reflect.DeepEqual(res, want) {
		t.Fatalf("fallback resume diverged\n got: %v\nwant: %v", res, want)
	}

	// Tear everything: no snapshot left to resume from.
	for _, name := range names {
		if err := os.Truncate(name, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ResumeLatest(dir, cfg); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-torn directory: got %v, want ErrNoSnapshot", err)
	}
}

// TestResumeRejectsMismatchedConfig pins the fingerprint gate: any
// semantic config difference refuses the resume up front, while pure
// kernel-selection differences (reference vs gated vs sharded) pass it.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := ckptTestConfig()
	var frame bytes.Buffer
	if err := NewSim(cfg).Checkpoint(&frame); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	bad := cfg
	bad.Seed++
	if _, err := Resume(bytes.NewReader(frame.Bytes()), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different seed: got %v, want ErrConfigMismatch", err)
	}
	bad = cfg
	bad.InjectionRate = 0.3
	if _, err := Resume(bytes.NewReader(frame.Bytes()), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different rate: got %v, want ErrConfigMismatch", err)
	}

	kernels := cfg
	kernels.ReferenceKernel = true
	if _, err := Resume(bytes.NewReader(frame.Bytes()), kernels); err != nil {
		t.Fatalf("reference-kernel resume of a gated snapshot: %v", err)
	}
	kernels = cfg
	kernels.Shards = 4
	kernels.Workers = 4
	if _, err := Resume(bytes.NewReader(frame.Bytes()), kernels); err != nil {
		t.Fatalf("sharded resume of a gated snapshot: %v", err)
	}
}

// TestFingerprintPinned pins the configuration fingerprint to the values
// snapshots and rocoserve job directories were written under, for a
// default, a reliable chiplet and a faulted adaptive configuration, with
// and without the execution-strategy fields set. A change here makes every
// existing checkpoint unresumable (ErrConfigMismatch).
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{}, 0x5f230de02d3ed0bc},
		{"reliable-chiplet", Config{
			ChipsX: 2, ChipsY: 2, ChipW: 4, ChipH: 4, D2DClass: D2DSerial,
			Router: RoCo, Algorithm: XY, Traffic: Uniform, InjectionRate: 0.1,
			Reliable: true, AuditEvery: 64, Seed: 3,
		}, 0x427360f72f0b0986},
		{"faulted-adaptive", Config{
			Router: RoCo, Algorithm: Adaptive, Traffic: Transpose, InjectionRate: 0.2,
			Seed: 42, Faults: RandomFaults(CriticalFaults, 2, 8, 8, 7),
			FaultSchedule: PoissonFaultSchedule(NonCriticalFaults, 400, 2000, 8, 8, 9),
		}, 0xd84819a60de48e82},
	} {
		cfg := c.cfg.withDefaults()
		if got := fingerprint(cfg); got != c.want {
			t.Errorf("%s: fingerprint %016x, want %016x", c.name, got, c.want)
		}
		cfg.ReferenceKernel, cfg.Shards, cfg.Workers = true, 4, 2
		if got := fingerprint(cfg); got != c.want {
			t.Errorf("%s with kernel fields set: fingerprint %016x, want %016x", c.name, got, c.want)
		}
	}
}
