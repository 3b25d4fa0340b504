package metrics

import (
	"math"
	"testing"
)

func TestLatencyStats(t *testing.T) {
	l := NewLatency()
	for _, v := range []int64{10, 20, 30, 40} {
		l.Record(v)
	}
	if l.Count() != 4 || l.Average() != 25 {
		t.Fatalf("avg = %v (n=%d)", l.Average(), l.Count())
	}
	if l.Max() != 40 {
		t.Errorf("max = %v", l.Max())
	}
	if q := l.Quantile(0.5); q < 19 || q > 22 {
		t.Errorf("median = %v", q)
	}
}

// TestLatencyQuantilePastHistogram pins the tail past the 4096-cycle
// histogram: a quantile that falls beyond its last bucket reports the
// observed maximum, which still bounds it from above, instead of +Inf.
func TestLatencyQuantilePastHistogram(t *testing.T) {
	l := NewLatency()
	for i := 0; i < 90; i++ {
		l.Record(50)
	}
	for i := 0; i < 10; i++ { // 10% of the samples lie past 4095 cycles
		l.Record(5000 + int64(i)*100)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got := l.Quantile(q); math.IsInf(got, 0) || got != l.Max() {
			t.Errorf("Quantile(%v) = %v, want the maximum %v", q, got, l.Max())
		}
	}
	if got := l.Quantile(0.5); got != 51 {
		t.Errorf("median = %v, want the in-range bucket bound 51", got)
	}
}

func TestCompletionProbability(t *testing.T) {
	if p := (Completion{Generated: 100, Delivered: 75}).Probability(); p != 0.75 {
		t.Errorf("completion = %v", p)
	}
	if p := (Completion{}).Probability(); p != 1 {
		t.Errorf("idle completion = %v, want 1", p)
	}
}

func TestPEF(t *testing.T) {
	// PEF = latency x energy / completion; with completion 1 it is the EDP.
	if got := PEF(20, 0.5, 1); got != 10 {
		t.Errorf("PEF = %v, want 10", got)
	}
	if got := PEF(20, 0.5, 0.5); got != 20 {
		t.Errorf("PEF = %v, want 20", got)
	}
	if !math.IsInf(PEF(20, 0.5, 0), 1) {
		t.Error("PEF with zero completion should be +Inf")
	}
}

func TestThroughput(t *testing.T) {
	if thr := Throughput(6400, 100, 64); thr != 1.0 {
		t.Errorf("throughput = %v", thr)
	}
	if Throughput(1, 0, 64) != 0 {
		t.Error("zero cycles should give zero throughput")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{AvgLatency: 20, Completion: 1, DeliveredPkts: 10, GeneratedPkts: 10}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}
