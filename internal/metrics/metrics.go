// Package metrics collects the simulation outcomes the paper reports:
// average network latency, throughput, packet completion probability, and
// the composite Performance-Energy-Fault-tolerance (PEF) metric.
package metrics

import (
	"fmt"
	"math"

	"github.com/rocosim/roco/internal/stats"
)

// Latency accumulates end-to-end packet latencies (creation at the source
// PE to tail delivery, in cycles), with a histogram for tail quantiles.
type Latency struct {
	run  stats.Running
	hist *stats.Histogram
}

// NewLatency returns an empty accumulator.
func NewLatency() *Latency {
	return &Latency{hist: stats.NewHistogram(4096, 1)}
}

// Record adds one delivered packet's latency.
func (l *Latency) Record(cycles int64) {
	l.run.Add(float64(cycles))
	l.hist.Add(float64(cycles))
}

// Count returns the number of delivered packets recorded.
func (l *Latency) Count() int64 { return l.run.Count() }

// Average returns the mean latency in cycles.
func (l *Latency) Average() float64 { return l.run.Mean() }

// Max returns the largest observed latency.
func (l *Latency) Max() float64 { return l.run.Max() }

// Quantile returns an upper bound on the q-quantile latency. When the
// quantile falls past the histogram's last bucket it returns the observed
// maximum: still an upper bound, and unlike the histogram's +Inf it
// survives JSON encoding.
func (l *Latency) Quantile(q float64) float64 {
	if v := l.hist.Quantile(q); !math.IsInf(v, 1) {
		return v
	}
	return l.run.Max()
}

// Completion tracks offered versus delivered packets; its ratio is the
// paper's packet completion probability.
type Completion struct {
	Generated int64
	Delivered int64
}

// Probability returns delivered/generated, or 1 for an idle run (a
// fault-free network with no offered traffic trivially completes).
func (c Completion) Probability() float64 {
	if c.Generated == 0 {
		return 1
	}
	return float64(c.Delivered) / float64(c.Generated)
}

// PEF computes the paper's composite metric:
//
//	PEF = (AverageLatency x EnergyPerPacket) / CompletionProbability
//
// i.e. the energy-delay product divided by the completion probability; in a
// fault-free network PEF reduces to EDP. Units: nJ*cycles/probability.
func PEF(avgLatency, energyPerPacketNJ, completionProb float64) float64 {
	if completionProb <= 0 {
		return math.Inf(1)
	}
	return avgLatency * energyPerPacketNJ / completionProb
}

// Throughput converts delivered flits over a cycle span into
// flits/node/cycle, the accepted-traffic measure.
func Throughput(deliveredFlits, cycles int64, nodes int) float64 {
	if cycles <= 0 || nodes <= 0 {
		return 0
	}
	return float64(deliveredFlits) / float64(cycles) / float64(nodes)
}

// Summary bundles the outcome of one simulation run.
type Summary struct {
	AvgLatency    float64
	P95Latency    float64
	P99Latency    float64
	MaxLatency    float64
	AvgSourceQ    float64 // mean cycles a tail flit waited at the source PE
	DeliveredPkts int64
	GeneratedPkts int64
	Completion    float64
	ThroughputFNC float64 // flits/node/cycle accepted
	Cycles        int64
	ContentionRow float64
	ContentionCol float64
	ContentionAll float64
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("lat=%.2f cyc (p99=%.0f) delivered=%d/%d compl=%.3f thr=%.3f f/n/c",
		s.AvgLatency, s.P99Latency, s.DeliveredPkts, s.GeneratedPkts, s.Completion, s.ThroughputFNC)
}
