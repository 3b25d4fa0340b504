package traffic

import (
	"math"
	"testing"

	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
)

func measureRate(t *testing.T, g Generator, cycles int64) (pktRate float64, windows stats.Running) {
	t.Helper()
	var count, win int64
	for c := int64(0); c < cycles; c++ {
		if _, ok := g.NextPacket(c); ok {
			count++
			win++
		}
		if (c+1)%1000 == 0 {
			windows.Add(float64(win))
			win = 0
		}
	}
	return float64(count) / float64(cycles), windows
}

func gens(t *testing.T, pattern Pattern, rate float64) []Generator {
	t.Helper()
	return New(Config{Pattern: pattern, Rate: rate, FlitsPerPacket: 4, HotspotNode: 5, HotspotFraction: 0.3},
		topology.NewMesh(8, 8), stats.NewRNG(3))
}

func TestUniformRateConverges(t *testing.T) {
	g := gens(t, Uniform, 0.32)[0]
	rate, _ := measureRate(t, g, 400000)
	if math.Abs(rate-0.08) > 0.003 { // 0.32 flits / 4 flits-per-packet
		t.Errorf("uniform packet rate = %v, want ~0.08", rate)
	}
}

func TestUniformNeverSelf(t *testing.T) {
	g := gens(t, Uniform, 1.0)[7]
	for c := int64(0); c < 10000; c++ {
		if dst, ok := g.NextPacket(c); ok && dst == 7 {
			t.Fatal("uniform generator addressed its own node")
		}
	}
}

// TestNoPatternAddressesItsSource pins, for every pattern and every node,
// that a generator never addresses its own node nor one outside the grid:
// on 8x8, on 5x5 (whose centre node bit-complements to itself) and on a
// non-square 4x6 (where some transposes fall outside the grid). The
// hotspot's hot node is a source too, and must draw elsewhere.
func TestNoPatternAddressesItsSource(t *testing.T) {
	for _, grid := range []struct{ w, h int }{{8, 8}, {5, 5}, {4, 6}} {
		topo := topology.NewMesh(grid.w, grid.h)
		nodes := topo.Nodes()
		for p := Pattern(0); p.String() != "?"; p++ {
			cfg := Config{Pattern: p, Rate: 1, FlitsPerPacket: 1, HotspotNode: nodes / 2, HotspotFraction: 0.5}
			for src, g := range New(cfg, topo, stats.NewRNG(7)) {
				for c := int64(0); c < 3000; c++ {
					if dst, ok := g.NextPacket(c); ok && (dst == src || dst < 0 || dst >= nodes) {
						t.Fatalf("%dx%d %s: node %d addressed node %d at cycle %d", grid.w, grid.h, p, src, dst, c)
					}
				}
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	g := gens(t, Uniform, 1.0)[0]
	seen := map[int]bool{}
	for c := int64(0); c < 20000; c++ {
		if dst, ok := g.NextPacket(c); ok {
			seen[dst] = true
		}
	}
	if len(seen) != 63 {
		t.Errorf("uniform covered %d destinations, want 63", len(seen))
	}
}

func TestTransposeDestinations(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	gs := gens(t, Transpose, 1.0)
	for n := 0; n < 64; n++ {
		c := topo.Coord(n)
		want, silent := topo.ID(topology.Coord{X: c.Y, Y: c.X}), c.X == c.Y
		got := false
		for cyc := int64(0); cyc < 100; cyc++ {
			if dst, ok := gs[n].NextPacket(cyc); ok {
				got = true
				if dst != want {
					t.Fatalf("node %d sent to %d, want %d", n, dst, want)
				}
			}
		}
		if silent && got {
			t.Fatalf("diagonal node %d should be silent under transpose", n)
		}
	}
}

func TestBitComplementDestinations(t *testing.T) {
	gs := gens(t, BitComplement, 1.0)
	for n := 0; n < 64; n++ {
		for cyc := int64(0); cyc < 50; cyc++ {
			if dst, ok := gs[n].NextPacket(cyc); ok && dst != 63-n {
				t.Fatalf("node %d sent to %d, want %d", n, dst, 63-n)
			}
		}
	}
}

func TestHotspotSkew(t *testing.T) {
	g := gens(t, Hotspot, 1.0)[0] // hotspot node 5, fraction 0.3
	hot, total := 0, 0
	for cyc := int64(0); cyc < 40000; cyc++ {
		if dst, ok := g.NextPacket(cyc); ok {
			total++
			if dst == 5 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// 0.3 direct plus the uniform share that happens to pick node 5.
	if frac < 0.28 || frac > 0.35 {
		t.Errorf("hotspot fraction = %v, want ~0.31", frac)
	}
}

func TestSelfSimilarRateConverges(t *testing.T) {
	// Heavy-tailed ON/OFF needs a long horizon; allow a loose tolerance.
	var rate float64
	for n := 0; n < 8; n++ {
		g := gens(t, SelfSimilar, 0.32)[n]
		r, _ := measureRate(t, g, 300000)
		rate += r
	}
	rate /= 8
	if math.Abs(rate-0.08) > 0.02 {
		t.Errorf("self-similar packet rate = %v, want ~0.08", rate)
	}
}

func TestSelfSimilarIsBurstier(t *testing.T) {
	// The defining property: the ON/OFF process has a much higher index of
	// dispersion than the Bernoulli process at the same mean rate.
	_, uniWin := measureRate(t, gens(t, Uniform, 0.32)[0], 300000)
	_, ssWin := measureRate(t, gens(t, SelfSimilar, 0.32)[0], 300000)
	uniD := uniWin.Variance() / uniWin.Mean()
	ssD := ssWin.Variance() / ssWin.Mean()
	if ssD < 2*uniD {
		t.Errorf("self-similar dispersion %v should far exceed uniform %v", ssD, uniD)
	}
}

func TestMPEG2FixedDestinationAndBursts(t *testing.T) {
	g := gens(t, MPEG2, 0.32)[0]
	dsts := map[int]bool{}
	var count int64
	for cyc := int64(0); cyc < 300000; cyc++ {
		if dst, ok := g.NextPacket(cyc); ok {
			dsts[dst] = true
			count++
		}
	}
	if len(dsts) != 1 {
		t.Errorf("mpeg2 stream should have one destination, got %d", len(dsts))
	}
	rate := float64(count) / 300000
	if math.Abs(rate-0.08) > 0.01 {
		t.Errorf("mpeg2 packet rate = %v, want ~0.08", rate)
	}
	_, win := measureRate(t, gens(t, MPEG2, 0.32)[1], 300000)
	if d := win.Variance() / win.Mean(); d < 1.5 {
		t.Errorf("mpeg2 should be bursty (dispersion %v)", d)
	}
}

func TestZeroRateSilence(t *testing.T) {
	for _, p := range []Pattern{Uniform, Transpose, SelfSimilar, MPEG2, BitComplement, Hotspot} {
		g := gens(t, p, 0)[0]
		for cyc := int64(0); cyc < 5000; cyc++ {
			if _, ok := g.NextPacket(cyc); ok {
				t.Fatalf("%s generated traffic at rate 0", p)
			}
		}
	}
}

func TestPatternStrings(t *testing.T) {
	names := map[Pattern]string{
		Uniform: "uniform", Transpose: "transpose", SelfSimilar: "self-similar",
		MPEG2: "mpeg2", BitComplement: "bit-complement", Hotspot: "hotspot",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := gens(t, SelfSimilar, 0.3)[4]
	b := gens(t, SelfSimilar, 0.3)[4]
	for cyc := int64(0); cyc < 50000; cyc++ {
		da, oka := a.NextPacket(cyc)
		db, okb := b.NextPacket(cyc)
		if oka != okb || da != db {
			t.Fatal("same-seed generators diverged")
		}
	}
}
