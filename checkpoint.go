// Checkpoint/resume: crash-safe snapshots of a running Sim with
// bit-identical continuation. Checkpoint serializes the Sim's complete
// state behind a config fingerprint, Resume restores it under the same
// configuration (kernel-selection knobs are free to differ — snapshots
// are kernel-canonical), and RunCheckpointed drives a run with periodic
// atomic snapshot files plus a final flush on an external stop signal. A
// resumed run finishes with exactly the Result, fault log, telemetry
// series and packet traces of one that never stopped.
package roco

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"github.com/rocosim/roco/internal/snapshot"
)

// ErrCorruptSnapshot reports a snapshot that failed structural or
// semantic validation: truncated at any byte, checksum mismatch, or
// state inconsistent with the restoring configuration. Torn writes from
// a killed process surface as this error, never as silently wrong state.
var ErrCorruptSnapshot = snapshot.ErrCorrupt

// ErrSnapshotVersion reports a structurally valid snapshot written by an
// incompatible format version.
var ErrSnapshotVersion = snapshot.ErrVersion

// ErrNoSnapshot reports that a checkpoint directory holds no valid
// snapshot to resume from.
var ErrNoSnapshot = snapshot.ErrNoSnapshot

// ErrConfigMismatch reports a resume attempted under a configuration
// that differs from the one that wrote the snapshot in a field the
// snapshot depends on: any field but the execution-only ReferenceKernel,
// Shards and Workers.
var ErrConfigMismatch = errors.New("roco: configuration does not match snapshot")

// snapshotPattern names checkpoint files; the zero-padded cycle number
// makes lexical order temporal order, which Latest relies on.
const snapshotPattern = "ckpt-*.rocosnap"

// Checkpoint writes one snapshot frame — config fingerprint plus the
// network's complete state — to w. It must be called at a cycle
// boundary: before the first Run, or from a RunCheckpointed hook, or
// after Run returned.
func (s *Sim) Checkpoint(w io.Writer) error {
	_, err := s.frame().WriteTo(w)
	return err
}

// CheckpointFile writes a snapshot crash-safely into dir as
// ckpt-<cycle>.rocosnap: temp file, fsync, atomic rename, directory
// sync. A crash mid-write leaves the previous snapshot intact and the
// torn temp file ignored by ResumeLatest. The first write into a
// directory sweeps stale temp files left by previously killed writers
// (the Sim owns its checkpoint directory for the duration of the run).
func (s *Sim) CheckpointFile(dir string) error {
	if s.sweptDir != dir {
		if _, err := snapshot.SweepTemp(dir); err != nil {
			return err
		}
		s.sweptDir = dir
	}
	name := filepath.Join(dir, fmt.Sprintf("ckpt-%012d.rocosnap", s.net.Cycle()))
	return snapshot.WriteFileAtomic(name, s.frame())
}

// frame encodes one snapshot frame: the config fingerprint, then the
// network's complete state.
func (s *Sim) frame() *snapshot.Encoder {
	e := snapshot.NewEncoder()
	e.U64(fingerprint(s.cfg))
	s.net.SaveState(e)
	return e
}

// CheckpointOptions parameterizes RunCheckpointed.
type CheckpointOptions struct {
	// Every writes a snapshot into Dir every Every cycles (0 disables
	// periodic snapshots).
	Every int64
	// Dir receives the snapshot files. Required when Every > 0 or Stop
	// is set; optional with Context/CycleBudget alone (the run is then
	// cancellable but leaves no snapshot behind).
	Dir string
	// Stop, when it becomes receivable (or is closed), stops the run at
	// the next cycle boundary after flushing a final snapshot — the hook
	// signal handlers use to make an interrupt resumable.
	Stop <-chan struct{}
	// Context, when non-nil, makes the run cancellable: at the first
	// cycle boundary after the context is done the run flushes a final
	// snapshot (when Dir is set) and returns interrupted. Cancellation
	// and deadline expiry behave identically; the caller disambiguates
	// through context.Cause. A nil Context is context.Background.
	Context context.Context
	// CycleBudget stops the run — interrupted, final snapshot flushed —
	// once the simulation clock reaches this cycle (0 = unlimited). The
	// budget is absolute simulated time, so a resumed run granted a new
	// slice passes a larger value to continue.
	CycleBudget int64
	// Progress, when set, is invoked after every snapshot written
	// (periodic and final-flush alike) with the cycle just persisted. It
	// runs on the simulation goroutine; keep it cheap. Never called when
	// Dir is empty.
	Progress func(cycle int64)
}

// RunCheckpointed executes the simulation with periodic crash-safe
// snapshots. It returns the Result (partial when interrupted), whether
// something ended the run early (Stop, Context, or CycleBudget), and the
// first snapshot-write error if any (a write failure on a final flush
// also ends the run; a periodic write failure stops the run too, since a
// run that can no longer checkpoint has lost the property the caller
// asked for).
func (s *Sim) RunCheckpointed(opts CheckpointOptions) (Result, bool, error) {
	if (opts.Every > 0 || opts.Stop != nil) && opts.Dir == "" {
		return Result{}, false, errors.New("roco: CheckpointOptions.Dir is required")
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return Result{}, false, err
		}
	}
	var done <-chan struct{}
	if opts.Context != nil {
		done = opts.Context.Done()
	}
	var werr error
	res, interrupted := s.net.RunHooked(func() bool {
		stop := false
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				stop = true
			default:
			}
		}
		if !stop && done != nil {
			select {
			case <-done:
				stop = true
			default:
			}
		}
		if !stop && opts.CycleBudget > 0 && s.net.Cycle() >= opts.CycleBudget {
			stop = true
		}
		if opts.Dir != "" && (stop || (opts.Every > 0 && s.net.Cycle()%opts.Every == 0)) {
			if err := s.CheckpointFile(opts.Dir); err != nil {
				if werr == nil {
					werr = err
				}
				return true
			}
			if opts.Progress != nil {
				opts.Progress(s.net.Cycle())
			}
		}
		return stop
	})
	return s.finish(res), interrupted, werr
}

// Resume restores a simulation from one snapshot frame. cfg must be the
// configuration that wrote the snapshot — checked by fingerprint before
// any state is decoded — except for the execution-only ReferenceKernel,
// Shards and Workers, which choose how the run executes, never what it
// computes.
// Returns ErrConfigMismatch, ErrCorruptSnapshot or ErrSnapshotVersion
// as appropriate.
func Resume(r io.Reader, cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	got := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if want := fingerprint(cfg); got != want {
		return nil, fmt.Errorf("%w: snapshot fingerprint %016x, configuration %016x", ErrConfigMismatch, got, want)
	}
	sim := NewSim(cfg)
	sim.net.LoadState(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return sim, nil
}

// ResumeLatest resumes from the newest valid snapshot in dir, skipping
// torn or truncated files (each candidate is fully checksum-verified
// before it is chosen). Stale temp files from previously killed writers
// are swept first — resume startup is the one moment the directory is
// provably quiescent. Returns ErrNoSnapshot when none qualifies.
func ResumeLatest(dir string, cfg Config) (*Sim, error) {
	if _, err := snapshot.SweepTemp(dir); err != nil {
		return nil, err
	}
	name, err := snapshot.Latest(dir, snapshotPattern)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sim, err := Resume(f, cfg)
	if err != nil {
		return nil, err
	}
	sim.sweptDir = dir
	return sim, nil
}

// fingerprint hashes the Config fields a snapshot depends on, rendered
// in the list's order to the exact text %#v printed for the whole Config,
// so every existing snapshot and rocoserve job directory still resumes.
// The execution-only ReferenceKernel, Shards and Workers (snapshots are
// kernel-canonical) and the retired SoAKernel and TelemetryCapacity
// render the fixed zero text they always hashed as. A semantic field
// added later must render only when non-zero, so that configurations
// leaving it zero keep their fingerprints. TestFingerprintCoversConfig
// fails on a field that is neither rendered nor execution-only.
func fingerprint(c Config) uint64 {
	fields := []struct {
		name  string
		value any
	}{
		{"Width", c.Width}, {"Height", c.Height}, {"Torus", c.Torus},
		{"ChipsX", c.ChipsX}, {"ChipsY", c.ChipsY}, {"ChipW", c.ChipW}, {"ChipH", c.ChipH},
		{"D2DClass", c.D2DClass}, {"D2DLatency", c.D2DLatency}, {"D2DGap", c.D2DGap},
		{"Router", c.Router}, {"Algorithm", c.Algorithm}, {"Traffic", c.Traffic},
		{"InjectionRate", c.InjectionRate}, {"FlitsPerPacket", c.FlitsPerPacket},
		{"WarmupPackets", c.WarmupPackets}, {"MeasurePackets", c.MeasurePackets},
		{"Seed", c.Seed}, {"Faults", c.Faults}, {"FaultSchedule", c.FaultSchedule},
		{"AuditEvery", c.AuditEvery}, {"MaxCycles", c.MaxCycles}, {"InactivityLimit", c.InactivityLimit},
		{"HotspotNode", c.HotspotNode}, {"HotspotFraction", c.HotspotFraction},
		{"Reliable", c.Reliable}, {"RetransmitTimeout", c.RetransmitTimeout},
		{"RetransmitMaxTimeout", c.RetransmitMaxTimeout}, {"RetransmitMaxRetries", c.RetransmitMaxRetries},
		{"DisableMirrorSA", c.DisableMirrorSA},
		{"ReferenceKernel", false}, {"SoAKernel", false}, {"Shards", 0}, {"Workers", 0},
		{"TelemetryEvery", c.TelemetryEvery}, {"TelemetryCapacity", 0},
	}
	h, sep := fnv.New64a(), "roco.Config{"
	for _, f := range fields {
		fmt.Fprintf(h, "%s%s:%#v", sep, f.name, f.value)
		sep = ", "
	}
	io.WriteString(h, "}")
	return h.Sum64()
}
