package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testOptions runs a workload just long enough to exercise its pipeline and
// its correctness checks; the numbers mean nothing at this length.
func testOptions(t *testing.T, traced bool) Options {
	measure := time.Second
	if testing.Short() {
		measure = 200 * time.Millisecond
	}
	return Options{Seed: 1, Measure: measure, Warm: measure / 4, Instances: 1, Trace: traced, OutDir: t.TempDir()}
}

// Run fails on any correctness violation — reorder, duplicate, conservation,
// a non-zero missed/shed/reconnects on the trees, a rollup shortfall, an
// empty pick — so a nil error is the assertion.
func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			res, err := Run(name, testOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, s := range EndToEnd {
				// Presence only: in a 200 ms window under the race detector
				// a starved observer may legitimately have read nothing.
				if _, ok := res.Metrics[s.Name]; !ok {
					t.Errorf("%s not reported; every workload must report every end-to-end metric", s.Name)
				}
			}
		})
	}
}

func TestTracedRunsCoverEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs add the isolated probes; skipped with -short")
	}
	reported := make(map[string]bool)
	for _, name := range Names {
		opt := testOptions(t, true)
		opt.Measure, opt.Warm = 600*time.Millisecond, 100*time.Millisecond // split over two halves
		res, err := Run(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for m := range res.Metrics {
			reported[m] = true
		}
		if _, err := os.Stat(filepath.Join(opt.OutDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
		if name == "beat_hot" && res.Metrics["hbnet.spans"].Value != 0 {
			t.Errorf("beat_hot took %v hbnet spans; its path must not touch the wire", res.Metrics["hbnet.spans"].Value)
		}
	}
	for _, s := range PerLayer {
		if !reported[s.Name] {
			t.Errorf("per-layer metric %s is declared but no workload's traced run reports it", s.Name)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := Run("tree_imaginary", testOptions(t, false)); err == nil {
		t.Fatal("no error for an unknown workload")
	}
}

// BENCHMARK.json is what a later change is judged against; it must name
// exactly what the code reports.
func TestBenchmarkJSONDeclaresWhatTheCodeReports(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []Spec                  `json:"end_to_end"`
		PerLayer  []Spec                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(Names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(Names))
	}
	for i, w := range decl.Workloads {
		if w.Name != Names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, Names[i])
		}
	}
	same := func(kind string, got, want []Spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, EndToEnd)
	same("per_layer", decl.PerLayer, PerLayer)
}
