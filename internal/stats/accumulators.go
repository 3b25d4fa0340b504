package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count/mean/variance/min/max in one pass (Welford's
// algorithm). The zero value is ready to use.
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count returns the number of samples.
func (r *Running) Count() int64 { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Merge folds another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// String summarizes the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.0f max=%.0f", r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Histogram is a fixed-width-bucket histogram over [0, width*buckets), with
// an overflow bucket for larger samples. It supports quantile queries,
// which the latency analysis uses for tail statistics.
type Histogram struct {
	width   float64
	counts  []int64
	over    int64
	total   int64
	running Running
}

// NewHistogram returns a histogram of the given bucket count and width.
func NewHistogram(buckets int, width float64) *Histogram {
	if buckets < 1 || width <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{width: width, counts: make([]int64, buckets)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.total++
	h.running.Add(x)
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.counts) {
		h.over++
		return
	}
	h.counts[i]++
}

// Mean returns the exact (not binned) mean of the samples.
func (h *Histogram) Mean() float64 { return h.running.Mean() }

// Quantile returns an upper bound of the q-quantile (0 <= q <= 1) using the
// bucket boundaries. Samples in the overflow bucket report +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return float64(i+1) * h.width
		}
	}
	return math.Inf(1)
}

// Series is a simple (x, y) sequence, used for figure data (latency vs
// injection rate and friends).
type Series struct {
	Label string
	X, Y  []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the y value for the given x, or NaN when x is absent.
func (s *Series) YAt(x float64) float64 {
	for i, v := range s.X {
		if v == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// Sorted returns a copy of the series with points ordered by x.
func (s *Series) Sorted() *Series {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	out := &Series{Label: s.Label}
	for _, i := range idx {
		out.Append(s.X[i], s.Y[i])
	}
	return out
}
