package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// toy runs a workload at toy size: tiny scale datasets, five quality
// sessions, one second per phase.
func toy(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 1, trace: trace, scale: 150, quality: 5, tmp: t.TempDir(), out: io.Discard}
}

// TestWorkloadsReportEveryMetric runs every workload of BENCHMARK.json
// untraced and traced at toy size and checks that each run is correct
// and reports every named metric with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := bench(toy(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTamperedOracleFails flips one byte of one oracle result and
// expects the run to be reported incorrect.
func TestTamperedOracleFails(t *testing.T) {
	cfg := toy(t, "onboard", false)
	cfg.tamper = func(want map[string][]byte) {
		for k, b := range want {
			b = append([]byte(nil), b...)
			b[len(b)/2] ^= 1
			want[k] = b
			return
		}
	}
	res, err := bench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a tampered oracle byte was not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
