package roco

import (
	"reflect"
	"testing"
)

// TestRunAllOrderWithWorkers pins the dispatch contract of the experiment
// drivers: whatever the worker count, runAll returns results in the input
// order of the configs. Each config gets a distinct seed and rate so a
// misplaced result cannot accidentally equal the right one.
func TestRunAllOrderWithWorkers(t *testing.T) {
	mkCfgs := func() []Config {
		var cfgs []Config
		for i := 0; i < 8; i++ {
			cfgs = append(cfgs, Config{
				Width: 4, Height: 4,
				Router:        RoCo,
				Algorithm:     XY,
				Traffic:       Uniform,
				InjectionRate: 0.05 + 0.02*float64(i),
				WarmupPackets: 50, MeasurePackets: 400,
				Seed: uint64(100 + i),
			})
		}
		return cfgs
	}
	serial := Options{Workers: 1}
	want := runAll(serial, mkCfgs())
	for _, workers := range []int{2, 4, 0} {
		opts := Options{Workers: workers}
		got := runAll(opts, mkCfgs())
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Workers=%d: result %d out of order or nondeterministic", workers, i)
			}
		}
	}
}

// TestRunAllSharedBudget checks that the worker budget is split between
// config-level parallelism and per-run shards without changing results:
// sharded configs under a small shared budget must match serial unsharded
// runs bit for bit.
func TestRunAllSharedBudget(t *testing.T) {
	mkCfgs := func(shards int) []Config {
		var cfgs []Config
		for i := 0; i < 4; i++ {
			cfgs = append(cfgs, Config{
				Width: 8, Height: 8,
				Router:        RoCo,
				Algorithm:     XY,
				Traffic:       Uniform,
				InjectionRate: 0.10,
				WarmupPackets: 50, MeasurePackets: 500,
				Seed:   uint64(7 + i),
				Shards: shards,
			})
		}
		return cfgs
	}
	want := runAll(Options{Workers: 1}, mkCfgs(1))
	got := runAll(Options{Workers: 4}, mkCfgs(4))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded runs under a shared worker budget diverged from serial unsharded runs")
	}
}

// TestFaultExperimentOnChiplets runs the fault experiment on a chiplet
// grid, whose size comes from the chiplet options rather than Width and
// Height: the faults must be drawn over the grid's own 4x4 nodes.
func TestFaultExperimentOnChiplets(t *testing.T) {
	opts := QuickOptions()
	opts.Warmup, opts.Measure = 100, 600
	opts.FaultTrials = 1
	opts.ChipsX, opts.ChipsY, opts.ChipW, opts.ChipH = 2, 2, 2, 2
	exp := RunFaultExperiment(opts, CriticalFaults, XY)
	for _, k := range RouterKinds {
		if len(exp.Completion[k]) != len(FaultCounts) {
			t.Fatalf("%v: %d completion points, want %d", k, len(exp.Completion[k]), len(FaultCounts))
		}
		for i, c := range exp.Completion[k] {
			if c <= 0 || c > 1 {
				t.Errorf("%v with %d faults: completion %v outside (0, 1]", k, FaultCounts[i], c)
			}
		}
	}
}

// TestFaultDriversUseSimulatedGrid: zero Width and Height run on the
// default 8x8 mesh, so the fault drivers must place their faults on that
// grid too, and match the same calls with an explicit 8x8.
func TestFaultDriversUseSimulatedGrid(t *testing.T) {
	zero := QuickOptions()
	zero.Width, zero.Height = 0, 0
	explicit := zero
	explicit.Width, explicit.Height = 8, 8
	if got, want := RunFaultExperiment(zero, CriticalFaults, XY), RunFaultExperiment(explicit, CriticalFaults, XY); !reflect.DeepEqual(got, want) {
		t.Errorf("fault experiment on a zero grid differs from 8x8\n got: %+v\nwant: %+v", got, want)
	}
	if got, want := RunDegradationExperiment(zero, XY), RunDegradationExperiment(explicit, XY); !reflect.DeepEqual(got, want) {
		t.Errorf("degradation experiment on a zero grid differs from 8x8\n got: %+v\nwant: %+v", got, want)
	}
}
