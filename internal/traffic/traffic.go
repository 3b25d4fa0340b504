// Package traffic implements the workload generators of the paper's
// evaluation: uniform random, transpose, self-similar web traffic (bounded
// Pareto ON/OFF sources, after Barford & Crovella), and MPEG-2-style video
// traffic (GoP-structured frame bursts), plus bit-complement and hotspot as
// extensions. A generator decides, per node per cycle, whether to create a
// packet and for which destination; rates are expressed in flits per node
// per cycle, the unit of the paper's x-axes.
package traffic

import (
	"fmt"
	"math"

	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
)

// Pattern names a traffic workload.
type Pattern uint8

const (
	// Uniform sends each packet to a destination drawn uniformly among all
	// other nodes.
	Uniform Pattern = iota
	// Transpose sends node (x,y) to node (y,x); nodes on the diagonal
	// generate no traffic.
	Transpose
	// SelfSimilar models aggregated web traffic with bounded-Pareto ON/OFF
	// sources and uniform destinations.
	SelfSimilar
	// MPEG2 models video streams: GoP-structured frame bursts (IBBPBB...)
	// toward a fixed per-source destination, as in the multimedia traces
	// the paper cites. (Extension: the paper omitted these results for
	// space.)
	MPEG2
	// BitComplement sends node b to node ^b (extension).
	BitComplement
	// Hotspot sends a fraction of uniform traffic to a single hot node
	// (extension).
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case SelfSimilar:
		return "self-similar"
	case MPEG2:
		return "mpeg2"
	case BitComplement:
		return "bit-complement"
	case Hotspot:
		return "hotspot"
	default:
		return "?"
	}
}

// Generator produces the injection process of one node. Implementations
// are deterministic functions of their seeded RNG.
type Generator interface {
	// NextPacket reports whether the node creates a packet this cycle, and
	// its destination. Generators never address the source itself.
	NextPacket(cycle int64) (dst int, ok bool)
}

// Config describes a workload.
type Config struct {
	Pattern Pattern
	// Rate is the offered load in flits per node per cycle.
	Rate float64
	// FlitsPerPacket converts Rate into a per-cycle packet probability.
	FlitsPerPacket int
	// HotspotNode and HotspotFraction configure the Hotspot pattern.
	HotspotNode     int
	HotspotFraction float64
}

// New builds the per-node generators for every node of topo. rng seeds one
// independent stream per node.
func New(cfg Config, topo *topology.Grid, rng *stats.RNG) []Generator {
	if cfg.FlitsPerPacket < 1 {
		panic("traffic: FlitsPerPacket must be >= 1")
	}
	if cfg.Rate < 0 {
		panic("traffic: negative rate")
	}
	nodes := topo.Nodes()
	gens := make([]Generator, nodes)
	// The Bernoulli patterns keep every node's generator in one slice.
	var bern []bernoulliGen
	bernoulli := func(n int, r *stats.RNG, prob float64, dst int, pick func(*bernoulliGen) int) Generator {
		if bern == nil {
			bern = make([]bernoulliGen, nodes)
		}
		bern[n] = bernoulliGen{rng: *r, prob: prob, src: n, nodes: nodes, dst: dst, frac: cfg.HotspotFraction, pick: pick}
		return &bern[n]
	}
	for n := range gens {
		nodeRNG := rng.Split(uint64(n))
		pktProb := cfg.Rate / float64(cfg.FlitsPerPacket)
		switch cfg.Pattern {
		case Uniform:
			gens[n] = bernoulli(n, nodeRNG, pktProb, 0, pickUniform)
		case Transpose:
			c := topo.Coord(n)
			// Diagonal nodes map to themselves; on non-square grids, nodes
			// whose transpose falls outside the grid stay silent too.
			if c.X == c.Y || c.Y >= topo.Width() || c.X >= topo.Height() {
				gens[n] = silentGen{}
				break
			}
			gens[n] = bernoulli(n, nodeRNG, pktProb, topo.ID(topology.Coord{X: c.Y, Y: c.X}), pickFixed)
		case BitComplement:
			dst := nodes - 1 - n
			if dst == n {
				gens[n] = silentGen{}
				break
			}
			gens[n] = bernoulli(n, nodeRNG, pktProb, dst, pickFixed)
		case Hotspot:
			gens[n] = bernoulli(n, nodeRNG, pktProb, cfg.HotspotNode, pickHotspot)
		case SelfSimilar:
			gens[n] = newSelfSimilar(n, pktProb, nodes, nodeRNG)
		case MPEG2:
			gens[n] = newMPEG2(n, pktProb, nodes, nodeRNG)
		default:
			panic(fmt.Sprintf("traffic: unknown pattern %d", cfg.Pattern))
		}
	}
	return gens
}

// silentGen never generates traffic (diagonal nodes under transpose).
type silentGen struct{}

func (silentGen) NextPacket(int64) (int, bool) { return 0, false }

// uniformPicker draws uniformly among all nodes except src.
func uniformPicker(src, nodes int) func(*stats.RNG) int {
	return func(r *stats.RNG) int { return uniformDraw(r, src, nodes) }
}

// uniformDraw draws uniformly among all nodes except src.
func uniformDraw(r *stats.RNG, src, nodes int) int {
	d := r.Intn(nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// bernoulliGen creates a packet each cycle with fixed probability and
// picks its destination with pick. It holds its RNG by value and its
// picker as a plain function, so a node's generator is one object.
type bernoulliGen struct {
	rng  stats.RNG
	prob float64
	// src and nodes frame the uniform draw; dst is the fixed destination
	// (or the hot node, chosen with probability frac).
	src, nodes, dst int
	frac            float64
	pick            func(*bernoulliGen) int
}

func (g *bernoulliGen) NextPacket(int64) (int, bool) {
	if !g.rng.Bernoulli(g.prob) {
		return 0, false
	}
	return g.pick(g), true
}

// pickUniform draws uniformly among all nodes except the source.
func pickUniform(g *bernoulliGen) int { return uniformDraw(&g.rng, g.src, g.nodes) }

// pickFixed returns the generator's fixed destination (transpose,
// bit-complement).
func pickFixed(g *bernoulliGen) int { return g.dst }

// pickHotspot sends to the hot node with probability frac, else uniformly.
func pickHotspot(g *bernoulliGen) int {
	if g.dst != g.src && g.rng.Bernoulli(g.frac) {
		return g.dst
	}
	return pickUniform(g)
}

// selfSimilar is a bounded-Pareto ON/OFF source. During ON periods the node
// creates packets with an elevated probability; OFF periods are silent.
// Period lengths are bounded-Pareto with shape 1.25 (the classic heavy-tail
// exponent for web workloads), and the ON probability is scaled so the
// long-run average matches the requested rate.
type selfSimilar struct {
	src       int
	rng       *stats.RNG
	pick      func(*stats.RNG) int
	onProb    float64
	remaining int64 // cycles left in the current period
	on        bool
	alpha     float64
	onMean    float64
	offMean   float64
}

const (
	ssAlpha  = 1.25
	ssMinOn  = 4.0
	ssMaxOn  = 3000.0
	ssMinOff = 8.0
	ssMaxOff = 6000.0
)

// paretoMean returns the mean of a bounded Pareto(alpha, lo, hi).
func paretoMean(alpha, lo, hi float64) float64 {
	la := math.Pow(lo, alpha)
	ratio := 1 - math.Pow(lo/hi, alpha)
	return la / ratio * alpha / (alpha - 1) * (1/math.Pow(lo, alpha-1) - 1/math.Pow(hi, alpha-1))
}

func newSelfSimilar(src int, pktProb float64, nodes int, rng *stats.RNG) *selfSimilar {
	onMean := paretoMean(ssAlpha, ssMinOn, ssMaxOn)
	offMean := paretoMean(ssAlpha, ssMinOff, ssMaxOff)
	duty := onMean / (onMean + offMean)
	onProb := pktProb / duty
	if onProb > 1 {
		onProb = 1 // source saturates; offered load caps out
	}
	g := &selfSimilar{
		src: src, rng: rng, pick: uniformPicker(src, nodes),
		onProb: onProb, alpha: ssAlpha, onMean: onMean, offMean: offMean,
	}
	// Start each source at a random phase so the fleet is not synchronized.
	g.on = rng.Bernoulli(duty)
	g.drawPeriod()
	return g
}

func (g *selfSimilar) drawPeriod() {
	if g.on {
		g.remaining = int64(g.rng.Pareto(g.alpha, ssMinOn, ssMaxOn))
	} else {
		g.remaining = int64(g.rng.Pareto(g.alpha, ssMinOff, ssMaxOff))
	}
	if g.remaining < 1 {
		g.remaining = 1
	}
}

func (g *selfSimilar) NextPacket(int64) (int, bool) {
	if g.remaining == 0 {
		g.on = !g.on
		g.drawPeriod()
	}
	g.remaining--
	if !g.on || !g.rng.Bernoulli(g.onProb) {
		return 0, false
	}
	return g.pick(g.rng), true
}

// mpeg2 models one video stream per node: frames arrive at a fixed period
// and are transferred as a burst of packets whose size depends on the frame
// type in the GoP sequence I B B P B B P B B P B B. The per-frame packet
// budgets are scaled so the long-run average matches the requested rate,
// and each stream talks to one fixed random destination (a media client).
type mpeg2 struct {
	src        int
	rng        *stats.RNG
	dst        int
	period     int64 // cycles between frames
	gop        []float64
	gopIdx     int
	framePhase int64
	backlog    float64 // packets still to send for the current frame
	perFrame   float64 // average packets per frame
}

// gopWeights are relative frame sizes for I, P and B frames in a standard
// 12-frame GoP (I=8, P=3, B=1, a typical MPEG-2 size ratio).
var gopWeights = []float64{8, 1, 1, 3, 1, 1, 3, 1, 1, 3, 1, 1}

const mpegFramePeriod = 512 // cycles per frame slot

func newMPEG2(src int, pktProb float64, nodes int, rng *stats.RNG) *mpeg2 {
	var sum float64
	for _, w := range gopWeights {
		sum += w
	}
	mean := sum / float64(len(gopWeights))
	g := &mpeg2{
		src: src, rng: rng, dst: uniformPicker(src, nodes)(rng),
		period:   mpegFramePeriod,
		perFrame: pktProb * mpegFramePeriod,
	}
	g.gop = make([]float64, len(gopWeights))
	for i, w := range gopWeights {
		g.gop[i] = w / mean
	}
	// Random initial phase de-synchronizes streams.
	g.framePhase = int64(rng.Intn(mpegFramePeriod))
	g.gopIdx = rng.Intn(len(g.gop))
	return g
}

func (g *mpeg2) NextPacket(int64) (int, bool) {
	if g.framePhase == 0 {
		g.backlog += g.perFrame * g.gop[g.gopIdx]
		g.gopIdx = (g.gopIdx + 1) % len(g.gop)
		g.framePhase = g.period
	}
	g.framePhase--
	if g.backlog >= 1 {
		g.backlog--
		return g.dst, true
	}
	return 0, false
}
