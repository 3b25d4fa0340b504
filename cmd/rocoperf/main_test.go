package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun runs one workload at smoke scale and returns the parsed JSON
// line it prints and the spans it recorded.
func smokeRun(t *testing.T, workload string, trace bool, golden map[string]string) (result, *report, *tracer) {
	t.Helper()
	o := options{workload: workload, seed: goldenSeed, trace: trace, smoke: true, dataDir: t.TempDir(), golden: golden}
	rep, tr, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	var human, out bytes.Buffer
	if err := printReport(&human, &out, rep, defs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line is not the result JSON: %v", err)
	}
	return res, rep, tr
}

func checkMetrics(t *testing.T, workload string, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s printed %d metrics, BENCHMARK.json lists %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, rep, _ := smokeRun(t, wl.Name, false, golden)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			checkMetrics(t, wl.Name, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}

			res, rep, tr := smokeRun(t, wl.Name, true, golden)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d: %v", res.Correct, res.Failed, rep.problems)
			}
			checkMetrics(t, wl.Name, res, spec.PerLayer)
			for name, m := range res.Metrics {
				if m.Unit == "ratio" && (m.Value < 0 || m.Value > 1) {
					t.Errorf("share %s = %v, outside [0,1]", name, m.Value)
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			checkSpans(t, path)
		})
	}
}

// checkSpans parses a spans file and checks every parent precedes its
// children.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{0: true}
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if !seen[s.Parent] || s.Dur < 0 || s.Name == "" {
			t.Fatalf("span line %d is malformed: %+v", n+1, s)
		}
		seen[s.ID] = true
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("the trace holds no spans")
	}
}

func TestCorruptGoldenDigestFails(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]string{}
	for k, v := range golden {
		corrupt[k] = v
	}
	corrupt["mesh64_sat/smoke"] = strings.Repeat("0", 64)
	res, rep, _ := smokeRun(t, "mesh64_sat", false, corrupt)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a corrupted golden digest passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(rep.problems, "\n"), "golden digest") {
		t.Errorf("the failure does not name the golden digest: %v", rep.problems)
	}
}
