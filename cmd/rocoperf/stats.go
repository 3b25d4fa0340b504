package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count, as Python's statistics.median does. It is 0
// for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the default
// ("exclusive") method of Python's statistics.quantiles(xs, n=4), the
// rule by which the benchmark's run-to-run spread is judged. One value is
// its own quartiles; no values give zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median (0
// when the median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs,
// interpolating linearly between the two closest ranks. It is 0 for no
// values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile picks the highest of the percentiles 50, 90, 99, 99.9, ...
// that still has at least ten of the n samples beyond it, so a reported
// tail always rests on ten observations. Fewer than 20 samples fall back
// to the median.
func tailPercentile(n int) float64 {
	p := 50.0
	// 1/inv of the samples lie beyond the 100-100/inv percentile.
	for inv := 10; n >= 10*inv; inv *= 10 {
		p = 100 - 100/float64(inv)
	}
	return p
}

// describeTail formats the median and tailPercentile of xs with the
// sample count they rest on, e.g. "p50 12.1 p99 40.2 us (n=3000)".
func describeTail(xs []float64, unit string) string {
	s := fmt.Sprintf("p50 %.4g", percentile(xs, 50))
	if p := tailPercentile(len(xs)); p > 50 {
		s += fmt.Sprintf(" p%v %.4g", p, percentile(xs, p))
	}
	return fmt.Sprintf("%s %s (n=%d)", s, unit, len(xs))
}

// log2Buckets is the bucket count of a log2Hist: bucket b > 0 holds values
// in [2^(b-1), 2^b), and the last bucket also takes everything larger.
const log2Buckets = 32

// log2Hist is a histogram of non-negative integer samples (durations in
// nanoseconds) in power-of-two buckets. It keeps the exact count and sum,
// so its mean is exact while quantiles are only bucket bounds.
type log2Hist struct {
	counts [log2Buckets]uint64
	n, sum uint64
}

// add records one sample.
func (h *log2Hist) add(v uint64) {
	b := bits.Len64(v)
	if b >= log2Buckets {
		b = log2Buckets - 1
	}
	h.counts[b]++
	h.n++
	h.sum += v
}

// merge adds every sample of o.
func (h *log2Hist) merge(o *log2Hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean is the exact mean of the samples (0 for none).
func (h *log2Hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the exclusive upper bound of the bucket holding the
// q-quantile sample (0 < q <= 1): the true quantile lies below it and at
// or above half of it. It is 0 for no samples.
func (h *log2Hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= target {
			return math.Ldexp(1, b)
		}
	}
	return math.Ldexp(1, log2Buckets-1)
}
