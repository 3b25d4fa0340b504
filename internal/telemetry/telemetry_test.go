package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
)

// fakeRouter satisfies router.Router through a nil embed and overrides
// only the three methods Sample reads: Activity, Contention, and
// VCOccupancy. Calling anything else nil-panics, which doubles as a
// guard that sampling never touches mutating router methods.
type fakeRouter struct {
	router.Router
	act  router.Activity
	cont router.Contention
	occ  [routing.NumClasses]int32
}

func (f *fakeRouter) Activity() *router.Activity     { return &f.act }
func (f *fakeRouter) Contention() *router.Contention { return &f.cont }

func (f *fakeRouter) VCOccupancy(per *[routing.NumClasses]int32) int {
	total := 0
	for cl, n := range f.occ {
		per[cl] += n
		total += int(n)
	}
	return total
}

// testCollector builds a collector over n fake routers with 2 links each.
func testCollector(n int) (*Collector, []*fakeRouter, []router.Router) {
	links := make([]int, n)
	for i := range links {
		links[i] = 2
	}
	c := New(Config{
		Every:   100,
		Nodes:   n,
		Links:   links,
		Profile: power.NewProfile(power.RoCoStructure()),
	})
	fakes := make([]*fakeRouter, n)
	routers := make([]router.Router, n)
	for i := range fakes {
		fakes[i] = &fakeRouter{}
		routers[i] = fakes[i]
	}
	return c, fakes, routers
}

func TestSampleDeltasAndTotals(t *testing.T) {
	c, fakes, routers := testCollector(2)

	fakes[0].act.LinkFlits = 10
	fakes[0].act.SAGrants = 7
	fakes[0].act.EarlyEjections = 3
	fakes[0].cont.RowFailures = 4
	fakes[0].occ[int(routing.TurnXY)] = 5
	fakes[1].act.CreditStalls = 6
	c.Sample(100, routers, NetSample{GenFlits: 40, DelFlits: 30})

	fakes[0].act.LinkFlits = 25 // +15 in epoch 1
	fakes[0].cont.RowFailures = 9
	fakes[0].occ[int(routing.TurnXY)] = 0
	c.Sample(250, routers, NetSample{GenFlits: 100, DelFlits: 90})

	s := c.Snapshot()
	if len(s.Epochs) != 2 || s.Evicted != 0 {
		t.Fatalf("got %d epochs, %d evicted, want 2, 0", len(s.Epochs), s.Evicted)
	}
	e0, e1 := &s.Epochs[0], &s.Epochs[1]
	if e0.Index != 0 || e0.StartCycle != 0 || e0.EndCycle != 100 || e0.Cycles != 100 {
		t.Fatalf("epoch 0 bounds wrong: %+v", e0)
	}
	if e1.Index != 1 || e1.StartCycle != 100 || e1.EndCycle != 250 || e1.Cycles != 150 {
		t.Fatalf("epoch 1 bounds wrong: %+v", e1)
	}
	if e0.LinkFlits != 10 || e1.LinkFlits != 15 {
		t.Fatalf("link-flit deltas wrong: %d, %d, want 10, 15", e0.LinkFlits, e1.LinkFlits)
	}
	if e0.SAGrants != 7 || e0.CreditStalls != 6 || e0.EarlyEjections != 3 {
		t.Fatalf("epoch 0 aggregates wrong: %+v", e0)
	}
	if e0.SAConflicts != 4 || e1.SAConflicts != 5 {
		t.Fatalf("SA-conflict deltas wrong: %d, %d, want 4, 5", e0.SAConflicts, e1.SAConflicts)
	}
	if e0.Occupancy[int(routing.TurnXY)] != 5 || e0.OccupancyTotal != 5 {
		t.Fatalf("epoch 0 occupancy wrong: %+v", e0.Occupancy)
	}
	if e1.OccupancyTotal != 0 {
		t.Fatalf("epoch 1 occupancy snapshot should be instantaneous, got %d", e1.OccupancyTotal)
	}
	if e0.Generated != 40 || e1.Generated != 60 || e0.Delivered != 30 || e1.Delivered != 60 {
		t.Fatalf("ledger deltas wrong: %+v %+v", e0, e1)
	}
	if e0.Energy.LeakageNJ <= 0 || e1.Energy.LeakageNJ <= e0.Energy.LeakageNJ {
		t.Fatalf("leakage must scale with epoch width: %g then %g", e0.Energy.LeakageNJ, e1.Energy.LeakageNJ)
	}
	tot := s.Totals
	if tot.Epochs != 2 || tot.Cycles != 250 || tot.Generated != 100 || tot.LinkFlits != 25 || tot.SAConflicts != 9 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	if s.LinkUtilization(e0) != 10.0/4/100 {
		t.Fatalf("link utilization wrong: %g", s.LinkUtilization(e0))
	}
}

func TestRingEvictionPreservesTotals(t *testing.T) {
	c, fakes, routers := testCollector(1)
	const epochs = Capacity + 3
	for i := int64(1); i <= epochs; i++ {
		fakes[0].act.LinkFlits = 10 * i
		c.Sample(100*i, routers, NetSample{GenFlits: i})
	}
	s := c.Snapshot()
	if len(s.Epochs) != Capacity || s.Evicted != 3 {
		t.Fatalf("got %d retained, %d evicted, want %d, 3", len(s.Epochs), s.Evicted, Capacity)
	}
	if first, last := s.Epochs[0].Index, s.Epochs[Capacity-1].Index; first != 3 || last != epochs-1 {
		t.Fatalf("retained wrong epochs: %d to %d", first, last)
	}
	if s.Totals.Epochs != epochs || s.Totals.Cycles != 100*epochs || s.Totals.LinkFlits != 10*epochs || s.Totals.Generated != epochs {
		t.Fatalf("totals must survive eviction: %+v", s.Totals)
	}
}

func TestSampleIdempotentAtSameCycle(t *testing.T) {
	c, _, routers := testCollector(1)
	c.Sample(100, routers, NetSample{})
	c.Sample(100, routers, NetSample{}) // no elapsed cycles: must be a no-op
	c.Sample(90, routers, NetSample{})  // never goes backwards either
	if tot := c.Snapshot().Totals; tot.Epochs != 1 {
		t.Fatalf("repeated flush recorded %d epochs, want 1", tot.Epochs)
	}
}

func TestSampleDoesNotAllocate(t *testing.T) {
	c, fakes, routers := testCollector(16)
	cycle := int64(0)
	// Twice the ring's size: the later half of the samples evict.
	allocs := testing.AllocsPerRun(2*Capacity, func() {
		cycle += 100
		fakes[3].act.LinkFlits += 17
		c.Sample(cycle, routers, NetSample{GenFlits: cycle})
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %v objects per epoch, want 0 (ring eviction included)", allocs)
	}
}

func TestMetricsHandler(t *testing.T) {
	c, fakes, routers := testCollector(2)
	fakes[0].act.LinkFlits = 12
	fakes[0].act.EarlyEjections = 2
	fakes[0].act.Ejections = 2
	fakes[1].occ[int(routing.ContinueY)] = 3
	c.Sample(100, routers, NetSample{GenFlits: 80, DelFlits: 60})

	srv := httptest.NewServer(Metrics(c))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("wrong content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"roco_flits_generated_total 80",
		"roco_flits_delivered_total 60",
		"roco_link_flits_total 12",
		"roco_link_utilization 0.03",
		"roco_crossbar_utilization",
		"roco_early_ejection_ratio 0.5",
		`roco_vc_occupancy_flits{class="dy"} 3`,
		`roco_energy_nanojoules_total{module="leakage"}`,
		`roco_node_link_utilization{node="0"} 0.06`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Every series line must parse as "name value" or "name{labels} value",
	// and every series must be preceded by HELP and TYPE headers.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			seen[strings.SplitN(h, " ", 2)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed series line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name = name[:i]
		}
		if !seen[name] {
			t.Fatalf("series %q has no preceding HELP header", name)
		}
	}
}

func TestMetricsBeforeFirstEpoch(t *testing.T) {
	c, _, _ := testCollector(1)
	srv := httptest.NewServer(Metrics(c))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "roco_epochs_total 0") {
		t.Fatal("empty collector must still serve its counters")
	}
	if strings.Contains(string(raw), "roco_link_utilization") {
		t.Fatal("gauges must be absent before the first epoch closes")
	}
}
