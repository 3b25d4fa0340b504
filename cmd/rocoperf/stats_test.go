package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns, the rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 3, 3}, 0},
		{[]float64{0, 0, 0}, 0},
	} {
		if got := spread(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestLog2Hist(t *testing.T) {
	var h log2Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000, 1 << 40} {
		h.add(v)
	}
	if h.n != 8 {
		t.Fatalf("n = %d, want 8", h.n)
	}
	wantCounts := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 7: 1, 10: 1, log2Buckets - 1: 1}
	for b, c := range h.counts {
		if c != wantCounts[b] {
			t.Errorf("bucket %d holds %d, want %d", b, c, wantCounts[b])
		}
	}
	if want := float64(0+1+2+3+4+100+1000+(1<<40)) / 8; h.mean() != want {
		t.Errorf("mean = %v, want %v", h.mean(), want)
	}
	// The median sample (4th of 8) is 3, in bucket [2, 4).
	if got := h.quantile(0.5); got != 4 {
		t.Errorf("quantile(0.5) = %v, want 4", got)
	}
	var m log2Hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 16 || m.counts[2] != 4 || m.sum != 2*h.sum {
		t.Errorf("merge of two copies gave n=%d counts[2]=%d sum=%d", m.n, m.counts[2], m.sum)
	}
	var empty log2Hist
	if empty.mean() != 0 || empty.quantile(0.5) != 0 {
		t.Error("an empty histogram must report zeros")
	}
}
