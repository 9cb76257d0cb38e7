package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestPrintResultEveryMetric: the printer emits every named metric with
// its unit, from the values the aggregators compute, and refuses to
// drop one silently.
func TestPrintResultEveryMetric(t *testing.T) {
	r := roundResult{
		Attempted: 100, Failed: 1, NewS: 0.001, RegisterS: 0.002, PredeployS: 0.003,
		WallS: 2, CPUS: 2.5, RefS: refNominalS, AllocBytes: 1e6, LiveHeapB: 3 << 20, PeakRSSB: 9 << 20,
		LayerShares: map[string]float64{"core": 0.5, "vclock": 0.5},
		Counters:    map[string]float64{"vclock.events": 300, "core.packet_ins": 10, "core.memory_hits": 5},
	}
	for _, tc := range []struct {
		defs   []metricDef
		values map[string]float64
	}{
		{endToEnd, endToEndValues([]roundResult{r}, []roundResult{r})},
		{perLayer, perLayerValues([]roundResult{r}, []roundResult{r}, nil)},
	} {
		var buf bytes.Buffer
		if err := printResult(&buf, true, 100, 1, tc.defs, tc.values); err != nil {
			t.Fatal(err)
		}
		var got result
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("result line is not JSON: %v\n%s", err, buf.String())
		}
		if strings.Count(buf.String(), "\n") != 1 {
			t.Errorf("result is not one line: %q", buf.String())
		}
		if len(got.Metrics) != len(tc.defs) {
			t.Errorf("printed %d metrics, want %d", len(got.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := got.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %q", d.name, m, ok, d.unit)
			}
		}
	}
	if got := endToEndValues([]roundResult{r}, nil)["ops_per_s"]; got != 50 {
		t.Errorf("ops_per_s = %v, want 50", got)
	}
	// A round on a host half as fast takes twice the time and the kernel
	// around it too; at nominal speed it is the same round.
	slow := r
	slow.WallS, slow.CPUS, slow.RefS = 2*r.WallS, 2*r.CPUS, 2*r.RefS
	if got, want := endToEndValues([]roundResult{slow}, nil), endToEndValues([]roundResult{r}, nil); got["ops_per_s"] != want["ops_per_s"] || got["cpu_us_per_op"] != want["cpu_us_per_op"] {
		t.Errorf("a round on a slower host reads ops_per_s %v, cpu_us_per_op %v; want %v, %v",
			got["ops_per_s"], got["cpu_us_per_op"], want["ops_per_s"], want["cpu_us_per_op"])
	}
	if got := perLayerValues(nil, []roundResult{r}, nil)["core.memory_hit_ratio"]; got != 0.5 {
		t.Errorf("core.memory_hit_ratio = %v, want 0.5", got)
	}
	if err := printResult(&bytes.Buffer{}, true, 1, 0, endToEnd, map[string]float64{}); err == nil {
		t.Error("printResult accepted a run with no metrics measured")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root names
// exactly the metrics simbench prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, simbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, simbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no generator", w.Name)
		}
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
	}
	for name := range workloads {
		if listed[name] == (unlisted[name] != "") {
			t.Errorf("workload %q: listed in BENCHMARK.json %v, among the unlisted %v; want exactly one", name, listed[name], unlisted[name] != "")
		}
	}
}

// unlisted names the workloads simbench runs that BENCHMARK.json leaves
// out, each with the reason.
var unlisted = map[string]string{
	"replay": "loses requests to a known defect (README.md), and a listed workload must run without a failed op",
}
