package roco

import (
	"reflect"
	"strings"
	"testing"
)

func TestFindSaturation(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 2500
	res := FindSaturation(opts, RoCo, XY)
	if res.Rate < 0.05 || res.Rate > 0.6 {
		t.Fatalf("implausible saturation rate %.3f", res.Rate)
	}
	if res.LatencyAtRate <= 0 {
		t.Fatalf("no latency recorded at the saturation point")
	}
	t.Logf("RoCo XY saturation ~ %.3f flits/node/cycle (lat %.1f)", res.Rate, res.LatencyAtRate)
}

func TestSaturationStudyRender(t *testing.T) {
	opts := QuickOptions()
	opts.Measure = 1500
	study := RunSaturationStudy(opts, XY)[0]
	if len(study.Results) != 3 {
		t.Fatalf("got %d results", len(study.Results))
	}
	var sb strings.Builder
	study.Render(&sb)
	if !strings.Contains(sb.String(), "Saturation throughput") {
		t.Error("render missing title")
	}
}

// TestSaturationStudyWorkers: the searches of two algorithms run in one
// pool within the worker budget, and the studies list the same results,
// in algorithm and router order, as a serial run.
func TestSaturationStudyWorkers(t *testing.T) {
	opts := QuickOptions()
	opts.Warmup, opts.Measure = 100, 600
	opts.Workers = 1
	serial := RunSaturationStudy(opts, XY, XYYX)
	opts.Workers = 3
	parallel := RunSaturationStudy(opts, XY, XYYX)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("3 workers gave %+v, serial %+v", parallel, serial)
	}
	for i, s := range parallel {
		if want := []Algorithm{XY, XYYX}[i]; s.Algorithm != want {
			t.Fatalf("study %d is %v, want %v", i, s.Algorithm, want)
		}
		for j, r := range s.Results {
			if r.Router != RouterKinds[j] {
				t.Fatalf("%v result %d is %v, want %v", s.Algorithm, j, r.Router, RouterKinds[j])
			}
		}
	}
}
