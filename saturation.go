package roco

import (
	"fmt"
	"io"

	"github.com/rocosim/roco/internal/report"
)

// SaturationResult is one router's measured saturation throughput: the
// highest injection rate at which the network still accepts (and delivers)
// essentially all offered traffic.
type SaturationResult struct {
	Router RouterKind
	// Rate is the saturation injection rate in flits/node/cycle.
	Rate float64
	// LatencyAtRate is the average latency measured at that rate.
	LatencyAtRate float64
}

// FindSaturation binary-searches the saturation throughput of one router
// under the given routing algorithm and uniform traffic, using the
// standard latency-knee criterion: a rate is sustainable while the run
// drains fully and its average latency stays below three times the
// zero-load latency (past the knee, latency grows without bound as source
// queues build).
func FindSaturation(opts Options, kind RouterKind, alg Algorithm) SaturationResult {
	measure := func(rate float64) Result {
		cfg := opts.baseConfig(kind, alg, Uniform, rate)
		cfg.MaxCycles = 30 * (opts.Warmup + opts.Measure)
		return Run(cfg)
	}
	base := measure(0.02)
	limit := 3 * base.AvgLatency
	sustainable := func(res Result) bool {
		return !res.Saturated && res.Completion == 1 && res.AvgLatency < limit
	}

	lo, hi := 0.02, 0.60
	lat := base.AvgLatency
	for i := 0; i < 8; i++ { // ~0.002 resolution over [0.02, 0.60]
		mid := (lo + hi) / 2
		if res := measure(mid); sustainable(res) {
			lo, lat = mid, res.AvgLatency
		} else {
			hi = mid
		}
	}
	return SaturationResult{Router: kind, Rate: lo, LatencyAtRate: lat}
}

// SaturationStudy measures the saturation throughput of all three paper
// routers under one routing algorithm.
type SaturationStudy struct {
	Algorithm Algorithm
	Results   []SaturationResult
}

// RunSaturationStudy runs FindSaturation for the paper's three routers
// under each algorithm in algs and returns one study per algorithm, in
// algs' order, each listing its results in router order. The searches are
// independent, so all of them share one pool within the Options worker
// budget: at most Workers run at a time (fewer when Shards spreads each
// run over several workers), each probing its rates one after another.
func RunSaturationStudy(opts Options, algs ...Algorithm) []SaturationStudy {
	studies := make([]SaturationStudy, len(algs))
	for i, alg := range algs {
		studies[i] = SaturationStudy{Algorithm: alg, Results: make([]SaturationResult, len(RouterKinds))}
	}
	kinds := len(RouterKinds)
	forEach(len(algs)*kinds, opts.effectiveWorkers()/max(opts.Shards, 1), func(i int) {
		s := &studies[i/kinds]
		s.Results[i%kinds] = FindSaturation(opts, RouterKinds[i%kinds], s.Algorithm)
	})
	return studies
}

// Render writes the study as a table.
func (s SaturationStudy) Render(w io.Writer) {
	tbl := report.NewTable(
		fmt.Sprintf("Saturation throughput — %s routing, uniform traffic", s.Algorithm),
		"router", "saturation rate (flits/node/cycle)", "latency at rate (cycles)")
	for _, r := range s.Results {
		tbl.AddRow(r.Router.String(), fmt.Sprintf("%.3f", r.Rate), fmt.Sprintf("%.1f", r.LatencyAtRate))
	}
	tbl.Render(w)
}
