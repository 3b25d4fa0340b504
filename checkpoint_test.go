package roco

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/snapshot"
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

// TestSnapshotPackedFieldBounds pins the decoder side of the packed
// in-memory layout: credit books hold int8 counters and 4-bit grantees in
// a fixed-size grant FIFO, and arbiters hold byte-sized pointers, while
// snapshots keep writing plain ints. A stream value the packing cannot
// hold must poison the decoder as corruption, never panic or wrap around;
// the value just inside each bound must still load.
func TestSnapshotPackedFieldBounds(t *testing.T) {
	book := func(depth, inflight int, grants ...int) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) {
			e.Int(1) // one downstream channel
			e.Int(depth)
			e.Int(inflight)
			e.Int(len(grants))
			for _, g := range grants {
				e.Int(g)
			}
		}
	}
	grants := func(k int) []int {
		g := make([]int, k)
		for i := range g {
			g[i] = i
		}
		return g
	}
	loadBook := func(d *snapshot.Decoder) { router.NewOutVCBook(1, 5).State(d.Stream()) }
	loadArb := func(d *snapshot.Decoder) {
		a := arbiter.NewRoundRobin(3)
		a.State(d.Stream())
	}
	loadMirror := func(d *snapshot.Decoder) {
		m := arbiter.NewMirror()
		m.State(d.Stream())
	}
	pointer := func(v ...int) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) {
			for _, x := range v {
				e.Int(x)
			}
		}
	}
	cases := []struct {
		name  string
		write func(*snapshot.Encoder)
		load  func(*snapshot.Decoder)
		ok    bool
	}{
		{"15 grants fill the FIFO", book(5, 0, grants(15)...), loadBook, true},
		{"16 grants overflow the FIFO", book(5, 0, grants(16)...), loadBook, false},
		{"grantee 15", book(5, 0, 15), loadBook, true},
		{"grantee 16", book(5, 0, 16), loadBook, false},
		{"negative grantee", book(5, 0, -1), loadBook, false},
		{"depth 127", book(127, 0), loadBook, true},
		{"depth 128", book(128, 0), loadBook, false},
		{"negative depth", book(-1, 0), loadBook, false},
		{"in flight 127", book(5, 127), loadBook, true},
		{"in flight 128", book(5, 128), loadBook, false},
		{"negative in flight", book(5, -1), loadBook, false},
		{"round-robin pointer 2 of 3", pointer(2), loadArb, true},
		{"round-robin pointer 3 of 3", pointer(3), loadArb, false},
		{"round-robin pointer 256 of 3", pointer(256), loadArb, false},
		{"mirror global pointer 2 of 2", pointer(2, 0), loadMirror, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := snapshot.NewEncoder()
			tc.write(e)
			var frame bytes.Buffer
			if _, err := e.WriteTo(&frame); err != nil {
				t.Fatal(err)
			}
			d, err := snapshot.Read(&frame)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked: %v", r)
				}
			}()
			tc.load(d)
			err = d.Finish()
			if tc.ok && err != nil {
				t.Fatalf("in-bounds stream refused: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("got %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// fuzzSnapshotConfigs are the runs whose mid-run snapshots
// FuzzSnapshotDecode corrupts: each router kind on a 4x4 mesh under
// reliable delivery, telemetry and a Poisson schedule of critical faults,
// and a 2x2 grid of serial 2x2 chiplets.
func fuzzSnapshotConfigs() []Config {
	var cs []Config
	for _, k := range []RouterKind{Generic, PathSensitive, RoCo, PDR} {
		cs = append(cs, Config{
			Width: 4, Height: 4,
			Router: k, Algorithm: XY, Traffic: Uniform,
			InjectionRate:  0.2,
			WarmupPackets:  50,
			MeasurePackets: 400,
			Seed:           5,
			Reliable:       true,
			TelemetryEvery: 64,
			FaultSchedule:  PoissonFaultSchedule(CriticalFaults, 100, 600, 4, 4, 3),
		})
	}
	chiplet := cs[2]
	chiplet.Width, chiplet.Height = 0, 0
	chiplet.ChipsX, chiplet.ChipsY, chiplet.ChipW, chiplet.ChipH = 2, 2, 2, 2
	chiplet.D2DClass = D2DSerial
	return append(cs, chiplet)
}

// FuzzSnapshotDecode strikes the snapshot decoders with corrupt payloads
// behind a valid checksum: Resume must return an error or a Sim, never
// panic. An input picks one of the mid-run frames built below and
// patches its payload; each patch is a 4-byte little-endian offset past
// the 8-byte configuration fingerprint and the byte to write there. The
// frame is then checksummed afresh so the patched bytes reach the
// decoders. `make fuzz` explores beyond the committed corpus.
func FuzzSnapshotDecode(f *testing.F) {
	type stored struct {
		cfg   Config
		frame []byte
	}
	var frames []stored
	for _, cfg := range fuzzSnapshotConfigs() {
		sim := NewSim(cfg)
		for _, c := range []int64{150, 400} {
			if _, _, err := sim.RunCheckpointed(CheckpointOptions{CycleBudget: c}); err != nil {
				f.Fatal(err)
			}
			var frame bytes.Buffer
			if err := sim.Checkpoint(&frame); err != nil {
				f.Fatal(err)
			}
			frames = append(frames, stored{cfg, frame.Bytes()})
		}
	}
	for i := range frames {
		f.Add(uint8(i), []byte(nil))
	}
	const header = 20 // magic, version u32, payload length u64
	crc := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, pick uint8, patches []byte) {
		st := frames[int(pick)%len(frames)]
		frame := append([]byte(nil), st.frame...)
		payload := frame[header : len(frame)-8]
		patched := len(patches) >= 5
		for ; len(patches) >= 5; patches = patches[5:] {
			off := binary.LittleEndian.Uint32(patches) % uint32(len(payload)-8)
			payload[8+off] = patches[4]
		}
		binary.LittleEndian.PutUint64(frame[len(frame)-8:], crc64.Checksum(payload, crc))
		if _, err := Resume(bytes.NewReader(frame), st.cfg); err != nil && !patched {
			t.Fatalf("unpatched frame %d refused: %v", int(pick)%len(frames), err)
		}
	})
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
