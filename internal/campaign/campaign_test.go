// Manager-level tests: the kill-restart equivalence contract (a job
// resumed over a killed process's on-disk state finishes bit-identical
// to an uninterrupted run), graceful load shedding under overload,
// retry-to-cap, deadline and cycle-budget enforcement, livelock
// conversion, and snapshot-refusal handling.
package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/snapshot"
)

// testConfig is a small, fast mesh with telemetry on, so results carry
// the full epoch series the equivalence checks have to reproduce.
func testConfig(seed uint64) roco.Config {
	return roco.Config{
		Width: 4, Height: 4,
		Router: roco.RoCo, Algorithm: roco.XY, Traffic: roco.Uniform,
		InjectionRate:  0.2,
		WarmupPackets:  50,
		MeasurePackets: 400,
		Seed:           seed,
		TelemetryEvery: 64,
	}
}

// runJSON renders an uninterrupted run's result with the canonical
// encoding — the exact bytes a succeeded job must serve.
func runJSON(t *testing.T, cfg roco.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := roco.WriteJSON(&buf, roco.Run(cfg)); err != nil {
		t.Fatalf("encode reference result: %v", err)
	}
	return buf.Bytes()
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string, within time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// craftKilledJob fabricates exactly the on-disk state a SIGKILLed server
// leaves behind for a mid-run job: a manifest frozen at state "running",
// a genuine mid-run snapshot, and a torn temp file from a write the kill
// interrupted.
func craftKilledJob(t *testing.T, dir, id string, cfg roco.Config) {
	t.Helper()
	snaps := filepath.Join(dir, "jobs", id, "snaps")
	if err := os.MkdirAll(snaps, 0o755); err != nil {
		t.Fatal(err)
	}
	sim := roco.NewSim(cfg)
	_, interrupted, err := sim.RunCheckpointed(roco.CheckpointOptions{
		Every: 64, Dir: snaps, CycleBudget: 150,
	})
	if err != nil || !interrupted {
		t.Fatalf("crafting mid-run snapshot: interrupted=%v err=%v", interrupted, err)
	}
	if err := os.WriteFile(filepath.Join(snaps, ".tmp-torn"), []byte("torn by kill"), 0o644); err != nil {
		t.Fatal(err)
	}
	man := Job{
		ID:          id,
		Spec:        Spec{Config: cfg},
		State:       Running,
		Attempts:    1,
		Cycle:       sim.Cycle(),
		SubmittedAt: nowMS(),
		StartedAt:   nowMS(),
	}
	if err := snapshot.WriteJSONFileAtomic(filepath.Join(dir, "jobs", id, "manifest.rjson"), &man); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartEquivalence is the acceptance contract: for every
// kernel (gated, reference) with Reliable both off and on, a job
// whose process was killed mid-run — manifest stuck at "running", torn
// temp file in the snapshot directory — is recovered by Open, resumed
// from its latest valid snapshot, and finishes with result bytes
// identical to an uninterrupted run's.
func TestKillRestartEquivalence(t *testing.T) {
	kernels := []struct {
		name string
		mut  func(*roco.Config)
	}{
		{"gated", func(*roco.Config) {}},
		{"reference", func(c *roco.Config) { c.ReferenceKernel = true }},
	}
	dir := t.TempDir()
	type expect struct {
		id   string
		want []byte
	}
	var exps []expect
	seed := uint64(11)
	for _, k := range kernels {
		for _, reliable := range []bool{false, true} {
			cfg := testConfig(seed)
			seed++
			cfg.Reliable = reliable
			if reliable {
				cfg.InactivityLimit = 1500
			}
			k.mut(&cfg)
			id := fmt.Sprintf("j-kill-%s-rel%v", k.name, reliable)
			craftKilledJob(t, dir, id, cfg)
			exps = append(exps, expect{id: id, want: runJSON(t, cfg)})
		}
	}
	m, err := Open(Options{Dir: dir, Workers: 2, CheckpointEvery: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for _, e := range exps {
		j := waitTerminal(t, m, e.id, 2*time.Minute)
		if j.State != Succeeded {
			t.Fatalf("%s: state %s, failure %v", e.id, j.State, j.Failure)
		}
		if j.Attempts != 1 {
			t.Errorf("%s: recovery charged extra attempts: %d", e.id, j.Attempts)
		}
		got, err := m.Result(e.id)
		if err != nil {
			t.Fatalf("%s: result: %v", e.id, err)
		}
		if !bytes.Equal(got, e.want) {
			t.Errorf("%s: resumed result differs from uninterrupted run (%d vs %d bytes)", e.id, len(got), len(e.want))
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", e.id, "snaps", ".tmp-torn")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: torn temp file survived resume (err=%v)", e.id, err)
		}
	}
}

// TestOverloadShedsAndCompletes: a full queue rejects new submissions
// with ErrQueueFull while every accepted job still completes within its
// deadline; capacity freed by completion re-admits.
func TestOverloadShedsAndCompletes(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, QueueCap: 2, CheckpointEvery: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	spec := func(seed uint64) Spec {
		cfg := testConfig(seed)
		cfg.MeasurePackets = 2000
		return Spec{Config: cfg, DeadlineMS: 120_000}
	}
	j1, err := m.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission over cap 2: err=%v, want ErrQueueFull", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if j := waitTerminal(t, m, id, time.Minute); j.State != Succeeded {
			t.Fatalf("accepted job %s: state %s, failure %v", id, j.State, j.Failure)
		}
	}
	j4, err := m.Submit(spec(4))
	if err != nil {
		t.Fatalf("admission after drain: %v", err)
	}
	if j := waitTerminal(t, m, j4.ID, time.Minute); j.State != Succeeded {
		t.Fatalf("post-drain job: state %s, failure %v", j.State, j.Failure)
	}
}

// TestRetryBackoffToCap: a persistently failing job is retried with
// backoff until the cap, then fails terminally with retries-exhausted
// and the full failure history.
func TestRetryBackoffToCap(t *testing.T) {
	m, err := Open(Options{
		Dir: t.TempDir(), Workers: 1,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Logf:   t.Logf,
		preRun: func(*Job) error { return errors.New("injected persistent fault") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	j, err := m.Submit(Spec{Config: testConfig(5), MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID, time.Minute)
	if got.State != Failed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Failure == nil || got.Failure.Kind != FailRetries {
		t.Fatalf("failure %v, want kind %s", got.Failure, FailRetries)
	}
	if got.Attempts != 3 {
		t.Errorf("attempts %d, want 3 (1 + MaxRetries 2)", got.Attempts)
	}
	if len(got.Retried) != 3 {
		t.Errorf("retried history has %d entries, want 3", len(got.Retried))
	}
}

// TestRetryThenSucceed: transient failures are retried and the job
// still produces the exact uninterrupted-run result bytes.
func TestRetryThenSucceed(t *testing.T) {
	var calls atomic.Int32
	m, err := Open(Options{
		Dir: t.TempDir(), Workers: 1,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Logf: t.Logf,
		preRun: func(*Job) error {
			if calls.Add(1) <= 2 {
				return errors.New("injected transient fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	cfg := testConfig(6)
	want := runJSON(t, cfg)
	j, err := m.Submit(Spec{Config: cfg, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID, time.Minute)
	if got.State != Succeeded {
		t.Fatalf("state %s, failure %v", got.State, got.Failure)
	}
	if got.Attempts != 3 || len(got.Retried) != 2 {
		t.Errorf("attempts %d retried %d, want 3 and 2", got.Attempts, len(got.Retried))
	}
	data, err := m.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("result after retries differs from uninterrupted run")
	}
}

// TestWrongFingerprintTerminal: a manifest whose config disagrees with
// its own snapshots (fingerprint mismatch) must fail terminally with the
// snapshot kind — rerunning cannot fix it, so no retries are burned.
func TestWrongFingerprintTerminal(t *testing.T) {
	dir := t.TempDir()
	id := "j-badfp"
	snaps := filepath.Join(dir, "jobs", id, "snaps")
	if err := os.MkdirAll(snaps, 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := roco.NewSim(testConfig(8))
	if _, interrupted, err := foreign.RunCheckpointed(roco.CheckpointOptions{
		Every: 64, Dir: snaps, CycleBudget: 150,
	}); err != nil || !interrupted {
		t.Fatalf("crafting foreign snapshot: interrupted=%v err=%v", interrupted, err)
	}
	man := Job{
		ID:          id,
		Spec:        Spec{Config: testConfig(7), MaxRetries: 5},
		State:       Queued,
		SubmittedAt: nowMS(),
	}
	if err := snapshot.WriteJSONFileAtomic(filepath.Join(dir, "jobs", id, "manifest.rjson"), &man); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	got := waitTerminal(t, m, id, time.Minute)
	if got.State != Failed || got.Failure == nil || got.Failure.Kind != FailSnapshot {
		t.Fatalf("state %s failure %v, want failed/%s", got.State, got.Failure, FailSnapshot)
	}
	if got.Attempts != 1 {
		t.Errorf("terminal snapshot refusal burned %d attempts, want 1", got.Attempts)
	}
}

// TestDeadlineTerminal: an expired wall-clock deadline stops the run at
// the next cycle boundary and fails the job terminally — deadlines span
// attempts, so no retry is attempted.
func TestDeadlineTerminal(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	j, err := m.Submit(Spec{Config: testConfig(9), DeadlineMS: 1, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID, time.Minute)
	if got.State != Failed || got.Failure == nil || got.Failure.Kind != FailDeadline {
		t.Fatalf("state %s failure %v, want failed/%s", got.State, got.Failure, FailDeadline)
	}
	if got.Attempts != 1 {
		t.Errorf("deadline expiry burned %d attempts, want 1", got.Attempts)
	}
}

// TestCycleBudgetTerminal: the simulated-cycle budget stops the run with
// a final snapshot and a terminal cycle-budget failure at (or just past)
// the budget cycle.
func TestCycleBudgetTerminal(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Workers: 1, CheckpointEvery: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	j, err := m.Submit(Spec{Config: testConfig(10), CycleBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID, time.Minute)
	if got.State != Failed || got.Failure == nil || got.Failure.Kind != FailCycleBudget {
		t.Fatalf("state %s failure %v, want failed/%s", got.State, got.Failure, FailCycleBudget)
	}
	if got.Cycle < 100 {
		t.Errorf("budget failure at cycle %d, want >= 100", got.Cycle)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "jobs", j.ID, "snaps", "ckpt-*.rocosnap"))
	if err != nil || len(snaps) == 0 {
		t.Errorf("budget stop left no snapshot for inspection (err=%v)", err)
	}
}

// TestLivelockBecomesStructuredFailure: a run the livelock watchdog
// terminates becomes a terminal failure carrying the watchdog report —
// the scenario from the graceful-degradation experiments where the
// generic baseline wedges on a mid-run crossbar fault.
func TestLivelockBecomesStructuredFailure(t *testing.T) {
	cfg := roco.Config{
		Width: 8, Height: 8,
		Router: roco.Generic, Algorithm: roco.XY, Traffic: roco.Uniform,
		InjectionRate:   0.25,
		WarmupPackets:   500,
		MeasurePackets:  4000,
		Seed:            2,
		InactivityLimit: 1000,
		AuditEvery:      64,
		FaultSchedule: []roco.TimedFault{
			{Cycle: 800, Fault: roco.Fault{Node: 27, Component: roco.Crossbar}},
		},
	}
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, CheckpointEvery: 4096, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	j, err := m.Submit(Spec{Config: cfg, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID, 2*time.Minute)
	if got.State != Failed || got.Failure == nil || got.Failure.Kind != FailLivelock {
		t.Fatalf("state %s failure %v, want failed/%s", got.State, got.Failure, FailLivelock)
	}
	if !bytes.Contains([]byte(got.Failure.Message), []byte("watchdog")) {
		t.Errorf("livelock failure should carry the watchdog report, got %q", got.Failure.Message)
	}
	if got.Attempts != 1 {
		t.Errorf("livelock burned %d attempts, want 1 (not retryable)", got.Attempts)
	}
	if _, err := m.Result(j.ID); err != nil {
		t.Errorf("wedged run's partial result should be kept for diagnosis: %v", err)
	}
}

// TestGracefulStopParksResumable: Stop interrupts a running job at a
// cycle boundary, parks it on disk as queued with the attempt uncharged,
// and a fresh Open resumes it to the exact uninterrupted result.
func TestGracefulStopParksResumable(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(12)
	cfg.MeasurePackets = 20000
	want := runJSON(t, cfg)
	m, err := Open(Options{Dir: dir, Workers: 1, CheckpointEvery: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get past its first checkpoint so the stop genuinely
	// interrupts a mid-run simulation.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := m.Get(j.ID)
		if cur.State == Running && cur.Cycle >= 64 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted (%s); raise MeasurePackets", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached its first checkpoint (state %s)", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.Stop()
	parked, _ := m.Get(j.ID)
	if parked.State != Queued {
		t.Fatalf("after graceful stop: state %s, want queued", parked.State)
	}
	if parked.Attempts != 0 {
		t.Errorf("graceful stop charged the attempt: %d, want 0", parked.Attempts)
	}
	if parked.Cycle == 0 {
		t.Error("parked job recorded no snapshotted progress")
	}
	m2, err := Open(Options{Dir: dir, Workers: 1, CheckpointEvery: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	fin := waitTerminal(t, m2, j.ID, 2*time.Minute)
	if fin.State != Succeeded {
		t.Fatalf("resumed job: state %s, failure %v", fin.State, fin.Failure)
	}
	got, err := m2.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed-after-stop result differs from uninterrupted run")
	}
}

// TestCancel covers both cancel paths: a queued job terminates
// immediately, a running one at its next cycle boundary.
func TestCancel(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, CheckpointEvery: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	long := testConfig(13)
	long.MeasurePackets = 50000
	running, err := m.Submit(Spec{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Config: testConfig(14)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get(queued.ID); j.State != Canceled {
		t.Fatalf("queued cancel: state %s, want canceled", j.State)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, running.ID, time.Minute); j.State != Canceled {
		t.Fatalf("running cancel: state %s, want canceled", j.State)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Errorf("cancel must be idempotent, got %v", err)
	}
	if err := m.Cancel("j-no-such"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown cancel: err=%v, want ErrUnknownJob", err)
	}
}

// TestSubmitValidation rejects invalid configurations and negative
// limits at the door.
func TestSubmitValidation(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	bad := testConfig(1)
	bad.InjectionRate = -1
	if _, err := m.Submit(Spec{Config: bad}); err == nil {
		t.Error("negative injection rate admitted")
	}
	if _, err := m.Submit(Spec{Config: testConfig(1), MaxRetries: -1}); err == nil {
		t.Error("negative max_retries admitted")
	}
	if _, err := m.Submit(Spec{Config: testConfig(1), DeadlineMS: -5}); err == nil {
		t.Error("negative deadline admitted")
	}
}
