package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(1)
	a := root.Split(0)
	b := root.Split(1)
	if a.Uint64() == b.Uint64() {
		t.Error("split streams should differ")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, samples = 10, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		got := float64(c) / samples
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.3f, want ~0.1", i, got)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / 100000; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %.3f", p)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) must be false")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) must be true")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	for trial := 0; trial < 100; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 100000; i++ {
		v := r.Pareto(1.25, 4, 3000)
		if v < 4 || v > 3000 {
			t.Fatalf("bounded Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A heavy-tailed distribution has far more mass near the minimum than
	// an exponential with the same mean, and still produces very large
	// samples.
	r := NewRNG(19)
	const samples = 200000
	var small, large int
	for i := 0; i < samples; i++ {
		v := r.Pareto(1.25, 4, 3000)
		if v < 8 {
			small++
		}
		if v > 400 {
			large++
		}
	}
	if float64(small)/samples < 0.5 {
		t.Errorf("Pareto should concentrate near xmin (got %.3f below 2*xmin)", float64(small)/samples)
	}
	if large == 0 {
		t.Error("Pareto should produce occasional very large samples")
	}
}

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.Count() != 8 || r.Mean() != 5 {
		t.Fatalf("mean = %v (n=%d), want 5 (8)", r.Mean(), r.Count())
	}
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.min != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.min, r.Max())
	}
}

func TestRunningMerge(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				xs[i] = float64(i)
			}
		}
		var all, a, b Running
		for i, v := range xs {
			all.Add(v)
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(&b)
		return a.Count() == all.Count() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-6 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-6*(1+all.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5); q < 49 || q > 52 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0.99); q < 98 || q > 101 {
		t.Errorf("p99 = %v, want ~99", q)
	}
	if h.running.Mean() != 50.5 {
		t.Errorf("mean = %v, want 50.5", h.running.Mean())
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 1)
	h.Add(5)
	h.Add(1e9)
	if !math.IsInf(h.Quantile(0.99), 1) {
		t.Error("overflow samples should push high quantiles to +Inf")
	}
}

func TestSeriesSortedAndLookup(t *testing.T) {
	s := &Series{Label: "x"}
	s.Append(3, 30)
	s.Append(1, 10)
	s.Append(2, 20)
	sorted := s.Sorted()
	if sorted.X[0] != 1 || sorted.X[2] != 3 {
		t.Errorf("Sorted order wrong: %v", sorted.X)
	}
	if s.YAt(2) != 20 {
		t.Errorf("YAt(2) = %v", s.YAt(2))
	}
	if !math.IsNaN(s.YAt(99)) {
		t.Error("YAt missing x should be NaN")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(23)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exponential(10)
	}
	if m := sum / n; math.Abs(m-10) > 0.2 {
		t.Errorf("exponential mean = %v, want ~10", m)
	}
}
