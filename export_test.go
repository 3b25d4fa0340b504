package roco

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/rocosim/roco/internal/metrics"
)

func TestLatencySweepJSON(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 1500
	sweep := RunLatencySweep(opts, Uniform, XY, []float64{0.05, 0.10})
	var sb strings.Builder
	if err := WriteJSON(&sb, sweep); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Traffic   string               `json:"traffic"`
		Algorithm string               `json:"algorithm"`
		Rates     []float64            `json:"rates"`
		Latency   map[string][]float64 `json:"latency"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, sb.String())
	}
	if decoded.Traffic != "uniform" || decoded.Algorithm != "XY" {
		t.Errorf("metadata wrong: %+v", decoded)
	}
	if len(decoded.Latency["RoCo"]) != 2 || decoded.Latency["RoCo"][0] <= 0 {
		t.Errorf("latency series wrong: %v", decoded.Latency)
	}
}

func TestFaultExperimentJSON(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 1500
	opts.FaultTrials = 1
	exp := RunFaultExperiment(opts, CriticalFaults, XY)
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"faultClass"`, `"completion"`, `"RoCo"`, `"pef"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
}

// TestWriteJSONLongTail checks that a run whose latency tail outgrows the
// quantile histogram still serializes: P95 and P99 report the observed
// maximum rather than +Inf, which encoding/json rejects.
func TestWriteJSONLongTail(t *testing.T) {
	l := metrics.NewLatency()
	for i := 0; i < 90; i++ {
		l.Record(40)
	}
	for i := 0; i < 10; i++ {
		l.Record(6000 + int64(i))
	}
	res := Result{P95Latency: l.Quantile(0.95), P99Latency: l.Quantile(0.99), MaxLatency: l.Max()}
	if res.P95Latency != l.Max() || res.P99Latency != l.Max() {
		t.Fatalf("P95 %v, P99 %v, want both the maximum %v", res.P95Latency, res.P99Latency, l.Max())
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

func TestEnergyResultJSON(t *testing.T) {
	res := EnergyResult{
		Patterns: []TrafficPattern{Uniform},
		EnergyNJ: map[RouterKind][]float64{RoCo: {0.7}, Generic: {0.9}},
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"uniform"`) || !strings.Contains(string(raw), `"RoCo"`) {
		t.Errorf("energy JSON wrong: %s", raw)
	}
}

func TestContentionSweepJSON(t *testing.T) {
	s := ContentionSweep{
		Algorithm: XY, Dimension: "row", Rates: []float64{0.1},
		Prob: map[RouterKind][]float64{RoCo: {0.05}},
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"contention"`) {
		t.Errorf("contention JSON wrong: %s", raw)
	}
}
