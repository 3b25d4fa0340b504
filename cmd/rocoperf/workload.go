package main

import (
	"runtime"

	"github.com/rocosim/roco"
)

// Each workload repeats one unit of work, identical every time, until the
// time budget is spent; a metric is the median over units. The sizes below
// were chosen so that a unit takes a few seconds on a 2-CPU host and a run
// holds at least three units. README.md says why each workload exists.

// workers is the parallelism of the workloads that use more than one
// thread: two, or fewer when the host has fewer CPUs.
func workers() int {
	return min(2, runtime.GOMAXPROCS(0))
}

// derive returns the i-th input seed of a run: a splitmix64 step, so that
// neighbouring seeds and indexes give unrelated streams.
func derive(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"paper8x8", "mesh64_sat", "mesh128_sparse", "campaign"}

// newWorkload returns the named workload built from the options' seed and
// scale, or nil for an unknown name.
func newWorkload(o options) workload {
	switch o.workload {
	case "paper8x8":
		return paper8x8(o)
	case "mesh64_sat":
		return mesh64Sat(o)
	case "mesh128_sparse":
		return mesh128Sparse(o)
	case "campaign":
		return newCampaign(o)
	}
	return nil
}

// paper8x8 is the paper's figure loop: every router x traffic x routing x
// load point on the 8x8 mesh, one short run each, on the default kernel.
func paper8x8(o options) *simWorkload {
	warmup, measure := int64(500), int64(5000)
	if o.smoke {
		warmup, measure = 20, 100
	}
	w := &simWorkload{o: o, probeCycle: 500}
	for _, k := range roco.RouterKinds {
		w.refSims = append(w.refSims, len(w.configs))
		for _, tp := range roco.TrafficPatterns {
			for _, alg := range []roco.Algorithm{roco.XY, roco.Adaptive} {
				for _, rate := range []float64{0.10, 0.25, 0.35} {
					w.configs = append(w.configs, roco.Config{
						Width: 8, Height: 8, Router: k, Algorithm: alg, Traffic: tp,
						InjectionRate: rate, FlitsPerPacket: 4,
						WarmupPackets: warmup, MeasurePackets: measure,
						Seed: derive(o.seed, len(w.configs)),
					})
				}
			}
		}
	}
	return w
}

// mesh64Sat drives a 64x64 RoCo mesh from empty at 160% of the uniform
// bisection bound (4/k flits/node/cycle) on the two-shard parallel kernel,
// where nearly every router ticks every cycle and Router.Tick takes the
// largest share of the step.
func mesh64Sat(o options) *simWorkload {
	k, cycles := 64, int64(500)
	if o.smoke {
		k, cycles = 16, 100
	}
	cfg := bigMesh(o, k, 1.6*4/float64(k), cycles)
	cfg.Shards, cfg.Workers = 2, workers()
	return &simWorkload{o: o, configs: []roco.Config{cfg}, refSims: []int{0}, probeCycle: cycles / 2}
}

// mesh128Sparse drives a 128x128 RoCo mesh from empty at 2% of the
// bisection bound on one shard, where construction, memory and the
// kernel's per-cycle scans over all nodes dominate. At 256x256 the same
// run spread 29% between runs against 11% here: its 700 MB no longer fit
// the host's shared cache.
func mesh128Sparse(o options) *simWorkload {
	k, cycles, prefix := 128, int64(1000), int64(200)
	if o.smoke {
		k, cycles, prefix = 32, 100, 20
	}
	cfg := bigMesh(o, k, 0.02*4/float64(k), cycles)
	return &simWorkload{o: o, configs: []roco.Config{cfg}, refSims: []int{0}, refCycles: prefix, probeCycle: cycles / 2}
}

// bigMesh is a k x k RoCo XY uniform run of exactly cycles cycles that
// measures from its first packet and never stops generating.
func bigMesh(o options, k int, rate float64, cycles int64) roco.Config {
	return roco.Config{
		Width: k, Height: k, Router: roco.RoCo, Algorithm: roco.XY, Traffic: roco.Uniform,
		InjectionRate: rate, FlitsPerPacket: 4,
		WarmupPackets: 1, MeasurePackets: 1 << 40, MaxCycles: cycles,
		Seed: derive(o.seed, 0),
	}
}
