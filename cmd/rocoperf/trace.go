package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/router/generic"
	"github.com/rocosim/roco/internal/router/pathsensitive"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// span is one timed call across a coarse layer boundary. Spans stay in
// memory and are written out only when the run ends.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer records spans relative to its creation time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds()})
	return id
}

// open starts a span whose children are recorded before it ends; close
// sets its duration.
func (t *tracer) open(name string, parent int) int {
	return t.add(name, parent, time.Now(), 0)
}

func (t *tracer) close(id int) {
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0).Nanoseconds() - s.Start
}

// durations returns the durations of every span named name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/float64(unit))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// callStats accumulates traced per-router calls.
type callStats struct {
	tick              log2Hist
	idleTicks         uint64
	injectNs          uint64
	injects, injectOK uint64
	claims, claimOK   uint64
}

func (c *callStats) merge(o *callStats) {
	c.tick.merge(&o.tick)
	c.idleTicks += o.idleTicks
	c.injectNs += o.injectNs
	c.injects += o.injects
	c.injectOK += o.injectOK
	c.claims += o.claims
	c.claimOK += o.claimOK
}

// tracedRouter times Tick and TryInject and counts ClaimInputVC outcomes
// of the router it wraps; every other call passes straight through. Each
// router keeps its own counts, so shard workers ticking in parallel never
// write the same ones: the kernel's color schedule never runs a router's
// Tick and a neighbour's ClaimInputVC on it at the same time.
type tracedRouter struct {
	router.Router
	st callStats
}

func (r *tracedRouter) Tick(cycle int64) {
	idle := r.Router.Idle()
	start := time.Now()
	r.Router.Tick(cycle)
	r.st.tick.add(uint64(time.Since(start)))
	if idle && r.Router.Idle() {
		r.st.idleTicks++
	}
}

func (r *tracedRouter) TryInject(f *flit.Flit, cycle int64) bool {
	start := time.Now()
	ok := r.Router.TryInject(f, cycle)
	r.st.injectNs += uint64(time.Since(start))
	r.st.injects++
	if ok {
		r.st.injectOK++
	}
	return ok
}

func (r *tracedRouter) ClaimInputVC(from topology.Direction, vc int) bool {
	ok := r.Router.ClaimInputVC(from, vc)
	r.st.claims++
	if ok {
		r.st.claimOK++
	}
	return ok
}

// StallScan forwards the watchdog's stall scan, which every router kind
// implements through its embedded recovery state.
func (r *tracedRouter) StallScan(cycle int64) []router.StuckFlit {
	return r.Router.(router.StallSource).StallScan(cycle)
}

// tracedWaitRouter additionally forwards the deadlock detector's wait
// graph, for the router kinds that expose one.
type tracedWaitRouter struct{ *tracedRouter }

func (r tracedWaitRouter) WaitEdges() []router.WaitEdge {
	return r.Router.(router.WaitGraphSource).WaitEdges()
}

// kindIndex orders router kinds in the per-kind metric arrays.
func kindIndex(k roco.RouterKind) int {
	switch k {
	case roco.Generic:
		return 0
	case roco.PathSensitive:
		return 1
	default:
		return 2
	}
}

// kindSuffixes names the per-kind tick metrics, in kindIndex order.
var kindSuffixes = [3]string{"generic", "pathsensitive", "roco"}

// tracedNetwork builds the network roco.NewSim would build for cfg, with
// every router wrapped in a tracedRouter, and returns the wrappers too. It
// covers the single-die, fault-free, unreliable configurations of the sim
// workloads; the traced-versus-untraced snapshot comparison proves that
// the two builds agree.
func tracedNetwork(cfg roco.Config) (*network.Network, []*tracedRouter) {
	var build func(id int, e *router.RouteEngine) router.Router
	switch cfg.Router {
	case roco.Generic:
		build = func(id int, e *router.RouteEngine) router.Router { return generic.New(id, e) }
	case roco.PathSensitive:
		build = func(id int, e *router.RouteEngine) router.Router { return pathsensitive.New(id, e) }
	case roco.RoCo:
		build = func(id int, e *router.RouteEngine) router.Router { return core.New(id, e) }
	default:
		panic(fmt.Sprintf("rocoperf: no traced build for router %v", cfg.Router))
	}
	alg := map[roco.Algorithm]routing.Algorithm{roco.XY: routing.XY, roco.XYYX: routing.XYYX, roco.Adaptive: routing.Adaptive}[cfg.Algorithm]
	pattern := map[roco.TrafficPattern]traffic.Pattern{roco.Uniform: traffic.Uniform, roco.Transpose: traffic.Transpose, roco.SelfSimilar: traffic.SelfSimilar}[cfg.Traffic]
	wrapped := make([]*tracedRouter, 0, cfg.Width*cfg.Height)
	net := network.New(network.Config{
		Topo:      topology.NewMesh(cfg.Width, cfg.Height),
		Algorithm: alg,
		Build: func(id int, e *router.RouteEngine) router.Router {
			t := &tracedRouter{Router: build(id, e)}
			wrapped = append(wrapped, t)
			if _, ok := t.Router.(router.WaitGraphSource); ok {
				return tracedWaitRouter{t}
			}
			return t
		},
		Traffic:        traffic.Config{Pattern: pattern, Rate: cfg.InjectionRate, FlitsPerPacket: cfg.FlitsPerPacket},
		WarmupPackets:  cfg.WarmupPackets,
		MeasurePackets: cfg.MeasurePackets,
		MaxCycles:      cfg.MaxCycles,
		Seed:           cfg.Seed,
		Shards:         cfg.Shards,
		Workers:        cfg.Workers,
	})
	return net, wrapped
}

// networkFrame encodes net's state into the frame Sim.Checkpoint would
// write for it under configuration fingerprint fp.
func networkFrame(net *network.Network, fp uint64) []byte {
	e := snapshot.NewEncoder()
	e.U64(fp)
	net.SaveState(e)
	var buf bytes.Buffer
	e.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}
