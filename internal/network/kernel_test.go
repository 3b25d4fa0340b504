package network

import (
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// kernelConfig is a mid-load 8x8 run, small enough to finish quickly but
// busy enough that routers sleep and wake many times per run.
func kernelConfig(build func(int, *router.RouteEngine) router.Router, seed uint64) Config {
	return Config{
		Topo:            topology.NewMesh(8, 8),
		Algorithm:       routing.XY,
		Build:           build,
		Traffic:         traffic.Config{Pattern: traffic.Uniform, Rate: 0.15, FlitsPerPacket: 4},
		WarmupPackets:   300,
		MeasurePackets:  1500,
		InactivityLimit: 1000,
		MaxCycles:       400_000,
		Seed:            seed,
		AuditEvery:      64,
	}
}

// kernelBuilders are the router kinds of the equivalence table.
var kernelBuilders = []struct {
	name  string
	build func(int, *router.RouteEngine) router.Router
}{
	{"generic", genericBuilder},
	{"pathsensitive", psBuilder},
	{"roco", rocoBuilder},
	{"pdr", pdrBuilder},
}

// equivalenceCase is one row of the kernel equivalence table: the gated
// run of a configuration against the tick-everything reference run of the
// same configuration.
type equivalenceCase struct {
	test  string // top-level test that runs the row
	name  string // subtest name
	build func(int, *router.RouteEngine) router.Router
	seed  uint64
	// tweak adjusts both runs' configuration (algorithm, faults, Reliable);
	// shards and workers apply to the gated run only.
	tweak           func(*Config)
	shards, workers int
	faulted         bool // the run must install at least one fault
}

// poissonFaults strikes the 8x8 mesh with a non-critical Poisson schedule.
func poissonFaults(seed uint64, mean float64, horizon int64) func(*Config) {
	return func(c *Config) {
		c.Schedule = fault.PoissonSchedule(fault.NonCritical, mean, horizon, 64, core.NumVCs, stats.NewRNG(seed^0xfa17))
	}
}

// equivalenceTable is the correctness contract of the activity-gated
// kernel: for every row the gated run and the reference run must produce
// bit-identical Results — same latency histogram, same per-router activity
// counters, same fault log. A divergence means a router was left asleep
// through a cycle that would have done work, SkipCycles mis-replayed an
// idle tick, a router's busy mask drifted from its channels (a missed
// syncAlloc path), or the bitset sweep ticked a different set or order
// than the canonical schedule.
//
// The rows cover 4 router kinds × 3 seeds, Poisson runtime faults, the
// XY-YX and adaptive algorithms (whose cost scan and mode flip read
// neighbor state mid-tick), the reliability protocol's wake path, and the
// sharded bitset sweep. The top-level test names are stable IDs kept from
// when the bitset kernel was an opt-in variant; the TestSoAKernel* rows
// run the one gated kernel sharded (Shards=4, Workers=2).
func equivalenceTable() []equivalenceCase {
	var rows []equivalenceCase
	for _, sharded := range []bool{false, true} {
		plain, faults := "TestGatedKernelMatchesReference", "TestGatedKernelMatchesReferenceUnderFaults"
		shards, workers := 0, 0
		if sharded {
			plain, faults = "TestSoAKernelMatchesReference", "TestSoAKernelMatchesReferenceUnderFaults"
			shards, workers = 4, 2
		}
		for _, b := range kernelBuilders {
			for _, seed := range []uint64{1, 42, 99} {
				rows = append(rows, equivalenceCase{test: plain, name: b.name, build: b.build, seed: seed, shards: shards, workers: workers})
			}
		}
		for _, b := range kernelBuilders[:3] {
			for _, seed := range []uint64{7, 1234} {
				rows = append(rows, equivalenceCase{test: faults, name: b.name, build: b.build, seed: seed,
					tweak: poissonFaults(seed, 120, 600), shards: shards, workers: workers, faulted: true})
			}
		}
	}
	for _, alg := range []routing.Algorithm{routing.XYYX, routing.Adaptive} {
		for _, b := range []int{0, 2} { // generic, roco
			alg := alg
			rows = append(rows, equivalenceCase{test: "TestSoAKernelMatchesReferenceAlgorithms",
				name: kernelBuilders[b].name + "/" + alg.String(), build: kernelBuilders[b].build, seed: 5,
				tweak: func(c *Config) { c.Algorithm = alg }})
		}
	}
	rows = append(rows,
		equivalenceCase{test: "TestSoAKernelMatchesReferenceReliable", name: "roco", build: rocoBuilder, seed: 21,
			tweak: func(c *Config) { poissonFaults(21, 100, 500)(c); c.Reliable = true }, faulted: true},
		equivalenceCase{test: "TestSoAKernelSharded", name: "roco", build: rocoBuilder, seed: 11, shards: 4, workers: 2},
	)
	return rows
}

// runEquivalence runs the equivalence-table rows that belong to the
// calling top-level test.
func runEquivalence(t *testing.T) {
	ran := false
	for _, c := range equivalenceTable() {
		if c.test != t.Name() {
			continue
		}
		ran = true
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref := kernelConfig(c.build, c.seed)
			if c.tweak != nil {
				c.tweak(&ref)
			}
			gated := ref
			ref.ReferenceKernel = true
			gated.Shards, gated.Workers = c.shards, c.workers

			want := New(ref).Run()
			got := New(gated).Run()
			if c.faulted && len(want.FaultLog) == 0 {
				t.Fatalf("seed %d: fault schedule installed no faults; test is vacuous", c.seed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shards %d: gated kernel diverged from reference\n gated: %+v\n   ref: %+v",
					c.seed, c.shards, got.Summary, want.Summary)
			}
		})
	}
	if !ran {
		t.Fatalf("no equivalence rows for %s", t.Name())
	}
}

func TestGatedKernelMatchesReference(t *testing.T)            { runEquivalence(t) }
func TestGatedKernelMatchesReferenceUnderFaults(t *testing.T) { runEquivalence(t) }
func TestSoAKernelMatchesReference(t *testing.T)              { runEquivalence(t) }
func TestSoAKernelMatchesReferenceUnderFaults(t *testing.T)   { runEquivalence(t) }
func TestSoAKernelMatchesReferenceAlgorithms(t *testing.T)    { runEquivalence(t) }
func TestSoAKernelMatchesReferenceReliable(t *testing.T)      { runEquivalence(t) }
func TestSoAKernelSharded(t *testing.T)                       { runEquivalence(t) }

// tickCounter wraps a router and counts its Ticks.
type tickCounter struct {
	router.Router
	ticks *int64
}

func (r tickCounter) Tick(cycle int64) {
	*r.ticks++
	r.Router.Tick(cycle)
}

// TestReferenceKernelTicksEveryRouter pins the oracle's independence.
// The reference kernel runs the gated kernel's Step, so one misplaced
// switch would let it sleep and recycle like the gated kernel, and the
// equivalence suites would then compare the gated kernel with itself.
// Under ReferenceKernel every router must tick every cycle and no flit
// pool may exist. The gated run of the same light load must tick fewer
// times, or the count would check nothing.
func TestReferenceKernelTicksEveryRouter(t *testing.T) {
	const cycles = 500
	run := func(reference bool) (ticks int64, n *Network) {
		cfg := smokeConfig(routing.XY, traffic.Uniform, 0.02, 1)
		cfg.ReferenceKernel = reference
		cfg.Build = func(id int, e *router.RouteEngine) router.Router {
			return tickCounter{Router: genericBuilder(id, e), ticks: &ticks}
		}
		n = New(cfg)
		for i := 0; i < cycles; i++ {
			n.Step()
		}
		return ticks, n
	}
	ref, n := run(true)
	if want := int64(len(n.routers)) * cycles; ref != want {
		t.Errorf("reference kernel ticked %d times in %d cycles, want %d: every router every cycle", ref, cycles, want)
	}
	if n.pools != nil {
		t.Error("reference kernel keeps flit pools; its flits must be freshly allocated")
	}
	if gated, _ := run(false); gated >= ref {
		t.Errorf("gated kernel ticked %d times, the reference %d: the light load let no router sleep", gated, ref)
	}
}

// TestSoAHotStateMirrorsRouters is the transition-invariant probe behind
// the gated kernel's sleep decision (the name is kept from the
// struct-of-arrays mirror the busy masks replaced): at every cycle
// boundary of a faulty mid-load run, each router's AuditAlloc must find
// its busy mask — what Idle() reads — equal to a recount of its channels'
// dormancy (dormant→busy on injection or fault strike, busy→dormant on
// drain, with no missed edge in either direction), and an idle router
// must hold no flit.
func TestSoAHotStateMirrorsRouters(t *testing.T) {
	cfg := kernelConfig(rocoBuilder, 13)
	cfg.Schedule = fault.NewSchedule([]fault.Event{
		{Cycle: 120, Fault: fault.Fault{Node: 27, Component: fault.Crossbar, Module: fault.RowModule}},
		{Cycle: 240, Fault: fault.Fault{Node: 36, Component: fault.Buffer, Module: fault.ColumnModule, VC: 1}},
	})
	n := New(cfg)
	nodes := cfg.Topo.Nodes()
	sawBusy, sawDrained := false, false
	for step := 0; step < 600; step++ {
		n.Step()
		for id := 0; id < nodes; id++ {
			r := n.routers[id]
			if err := r.AuditAlloc(); err != nil {
				t.Fatalf("cycle %d: %v", n.Cycle(), err)
			}
			idle := r.Idle()
			if idle && r.BufferedFlits() != 0 {
				t.Fatalf("cycle %d: router %d is idle with %d flits buffered", n.Cycle(), id, r.BufferedFlits())
			}
			if !idle {
				sawBusy = true
			} else if sawBusy {
				sawDrained = true
			}
		}
	}
	if !sawBusy || !sawDrained {
		t.Fatalf("probe saw no dormant→busy→dormant transition (busy=%v drained=%v); workload too idle", sawBusy, sawDrained)
	}
}

// stepAllocs warms a network for warm cycles, then returns the heap
// objects one Step allocates on average.
func stepAllocs(cfg Config, warm, runs int) float64 {
	n := New(cfg)
	for i := 0; i < warm; i++ {
		n.Step()
	}
	defer n.stopWorkers()
	return testing.AllocsPerRun(runs, func() { n.Step() })
}

// idleAllocConfig is an 8x8 network with nothing to generate, inject,
// tick, or advance.
func idleAllocConfig() Config {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 5)
	cfg.Traffic.Rate = 0
	return cfg
}

// loadedAllocConfig is a loaded network that never stops generating
// during the probe.
func loadedAllocConfig() Config {
	cfg := kernelConfig(genericBuilder, 3)
	cfg.MeasurePackets = 1_000_000
	return cfg
}

// The four Step allocation guards pin the clock-gating payoff. Idle, the
// bitset sweeps over an empty active set must not touch the heap at all.
// Loaded, after warm-up has faulted in every lazy channel buffer and
// filled the flit pools and worklists, flits recycle through the pools and
// the bitmap updates are pure word writes, so Step allocates nothing
// either. The Step* names guard the sequential kernel, the SoAStep* names
// the sharded one (Shards=4, Workers=2).

func TestStepZeroAllocsWhenIdle(t *testing.T) {
	if a := stepAllocs(idleAllocConfig(), 8, 200); a != 0 {
		t.Fatalf("idle Step allocates %v objects per cycle, want 0", a)
	}
}

func TestSoAStepZeroAllocsWhenIdle(t *testing.T) {
	cfg := idleAllocConfig()
	cfg.Shards, cfg.Workers = 4, 2
	if a := stepAllocs(cfg, 8, 200); a != 0 {
		t.Fatalf("idle sharded Step allocates %v objects per cycle, want 0", a)
	}
}

func TestStepBoundedAllocsUnderLoad(t *testing.T) {
	if a := stepAllocs(loadedAllocConfig(), 2000, 500); a != 0 {
		t.Fatalf("loaded Step allocates %v objects per cycle, want 0", a)
	}
}

func TestSoAStepZeroAllocsUnderLoad(t *testing.T) {
	cfg := loadedAllocConfig()
	cfg.Shards, cfg.Workers = 4, 2
	if a := stepAllocs(cfg, 2000, 500); a != 0 {
		t.Fatalf("loaded sharded Step allocates %v objects per cycle, want 0", a)
	}
}

// TestAuditZeroAllocs: the auditor runs on the AuditEvery cadence of
// long runs, so its rechecks (conservation, staged pipe halves, the
// backlogged set, the routers' derived masks) must not touch the heap.
func TestAuditZeroAllocs(t *testing.T) {
	n := New(loadedAllocConfig())
	for i := 0; i < 500; i++ {
		n.Step()
	}
	if a := testing.AllocsPerRun(100, n.audit); a != 0 {
		t.Fatalf("audit allocates %v objects per call, want 0", a)
	}
}
