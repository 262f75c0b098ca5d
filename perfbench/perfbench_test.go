package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	return &config{
		workload: workload,
		seed:     5,
		window:   300 * time.Millisecond,
		trace:    trace,
		commit:   "test",
		dir:      t.TempDir(),
		shape:    shapes(true)[workload],
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at tiny sizes,
// untraced and traced, and checks the result carries exactly the metrics
// BENCHMARK.json names, each with its unit and a finite value.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := execute(tinyConfig(t, w.Name, trace))
			if err != nil || !res.Correct {
				t.Fatalf("%s trace=%v: correct=%v err=%v", w.Name, trace, res != nil && res.Correct, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.Attempted, res.Failed)
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
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestOracleRejectsCorruption damages one answer, then one served label,
// on every workload: the run must come back incorrect with a mismatch.
func TestOracleRejectsCorruption(t *testing.T) {
	for name := range workloads {
		for _, damage := range []string{"answer", "label"} {
			cfg := tinyConfig(t, name, false)
			cfg.corrupt = damage
			res, err := execute(cfg)
			var mm *mismatchError
			if res == nil || res.Correct || !asMismatch(err, &mm) {
				t.Errorf("%s with a corrupted %s: result %+v, err %v; want an oracle mismatch", name, damage, res, err)
			}
		}
	}
}
