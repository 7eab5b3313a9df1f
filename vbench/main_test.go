package main

import (
	"bytes"
	"os"
	"testing"
)

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that no run fails and that every named metric is emitted
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			m := measure(w, 3, tinySize(), 0, traced)
			if !m.res.Correct || m.res.Failed != 0 || m.res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, m.res.Correct, m.res.Attempted, m.res.Failed, m.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(m.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(m.res.Metrics), len(want))
			}
			for _, mt := range want {
				v, ok := m.res.Metrics[mt.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, mt.Name)
				case v.Unit != mt.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, mt.Name, v.Unit, mt.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, mt.Name, v.Value)
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the repository's BENCHMARK.json
// in step with the metric catalogues (regenerate it with --spec).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash vbench/run.sh --spec > BENCHMARK.json")
	}
}

// TestLayerOf checks the label-prefix attribution.
func TestLayerOf(t *testing.T) {
	for label, want := range map[string]int{
		"guest/seg":       layerGuest,
		"xen/vtimer/vm.2": layerXen,
		"httpd/syn":       layerHTTPD,
		"loadgen/arrival": layerLoadgen,
		"cluster/arrive":  layerCluster,
		"guest":           layerGuest,
		"tick":            layerOther,
		"":                layerOther,
	} {
		if got := layerOf(label); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", label, layerNames[got], layerNames[want])
		}
	}
}
