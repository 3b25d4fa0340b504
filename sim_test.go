package roco

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// stopConfig is a short 6x6 run whose telemetry epochs (64 cycles) do
// not divide stopCycle, so a stop leaves a partial epoch open.
func stopConfig() Config {
	return Config{
		Width: 6, Height: 6,
		Router: RoCo, Algorithm: XY, Traffic: Uniform,
		InjectionRate: 0.2,
		WarmupPackets: 100, MeasurePackets: 600,
		Seed:           11,
		TelemetryEvery: 64,
	}
}

// stopCycle is where the stop tests interrupt a run.
const stopCycle = 301

// stopAt runs sim under opts until a cycle budget stops it at stopCycle,
// and returns it.
func stopAt(t *testing.T, sim *Sim, opts CheckpointOptions) *Sim {
	t.Helper()
	opts.CycleBudget = stopCycle
	if _, interrupted, err := sim.RunCheckpointed(opts); err != nil || !interrupted {
		t.Fatalf("run to cycle %d: interrupted=%v, err=%v", stopCycle, interrupted, err)
	}
	return sim
}

// TestSimContinuesAfterStop: a Sim stopped at a cycle boundary and then
// run on in the same process ends exactly like one that never stopped,
// telemetry epochs included.
func TestSimContinuesAfterStop(t *testing.T) {
	cfg := stopConfig()
	want := Run(cfg)
	got := stopAt(t, NewSim(cfg), CheckpointOptions{}).Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("continued run diverged: %d telemetry epochs, want %d",
			len(got.Telemetry.Epochs), len(want.Telemetry.Epochs))
	}
}

// TestCheckpointAfterStopResumes: a checkpoint taken right after a stop
// resumes to the uninterrupted run's Result.
func TestCheckpointAfterStopResumes(t *testing.T) {
	cfg := stopConfig()
	want := Run(cfg)
	var frame bytes.Buffer
	if err := stopAt(t, NewSim(cfg), CheckpointOptions{}).Checkpoint(&frame); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&frame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged: %d telemetry epochs, want %d",
			len(got.Telemetry.Epochs), len(want.Telemetry.Epochs))
	}
}

// TestSimViewsComposeAcrossResume: tracing, the per-node view and the
// live metrics handler all work on a checkpointed and resumed Sim, and
// agree with an uninterrupted traced run; the handler serves while the
// Sim runs and writes snapshots.
func TestSimViewsComposeAcrossResume(t *testing.T) {
	cfg := stopConfig()
	cfg.InjectionRate = 0.15
	cfg.Reliable = true
	cfg.AuditEvery = 64
	cfg.FaultSchedule = PoissonFaultSchedule(CriticalFaults, 300, 1500, 6, 6, 5)
	const samples = 20

	sim := NewSim(cfg)
	sim.TracePackets(samples)
	want := sim.Run()
	wantTraces, wantDetail := sim.Traces(), sim.Detailed()
	if len(want.FaultEvents) == 0 || len(wantTraces) == 0 || want.Cycles <= stopCycle {
		t.Fatalf("vacuous run: %d faults, %d traces, %d cycles",
			len(want.FaultEvents), len(wantTraces), want.Cycles)
	}

	dir := t.TempDir()
	first := NewSim(cfg)
	first.TracePackets(samples)
	stopAt(t, first, CheckpointOptions{Dir: dir})
	resumed, err := ResumeLatest(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed.TracePackets(samples)
	metrics := resumed.MetricsHandler()
	// Scrape while the resumed Sim runs and writes periodic snapshots.
	done, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				metrics.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			}
		}
	}()
	got, _, err := resumed.RunCheckpointed(CheckpointOptions{Every: 64, Dir: dir})
	close(done)
	<-scraped
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed Result diverged\n got: %v\nwant: %v", got, want)
	}
	if got := resumed.Traces(); !reflect.DeepEqual(got, wantTraces) {
		t.Fatalf("resumed traces diverged: %d journeys, want %d", len(got), len(wantTraces))
	}
	if got := resumed.Detailed(); !reflect.DeepEqual(got, wantDetail) {
		t.Fatalf("resumed Detailed diverged\n got: %+v\nwant: %+v", got.Energy, wantDetail.Energy)
	}
	rec := httptest.NewRecorder()
	metrics.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if line := fmt.Sprintf("\nroco_cycles_total %d\n", want.Telemetry.Totals.Cycles); !strings.Contains(rec.Body.String(), line) {
		t.Fatalf("resumed /metrics lacks %q:\n%s", strings.TrimSpace(line), rec.Body.String())
	}
}

// TestSimViewPanics: each view refuses the call it cannot serve.
func TestSimViewPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	cfg := stopConfig()
	cfg.TelemetryEvery = 0
	sim := NewSim(cfg)
	mustPanic("Detailed before the run", func() { sim.Detailed() })
	mustPanic("MetricsHandler without telemetry", func() { sim.MetricsHandler() })
	sim.Run()
	mustPanic("TracePackets after the run", func() { sim.TracePackets(5) })
}
