package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {1009, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNearestRankHasTenBeyond(t *testing.T) {
	// The chosen percentile leaves at least ten samples strictly above
	// its rank, and the next one up on the ladder does not.
	for n := 20; n <= 20000; n += 37 {
		p := tailPercentile(n)
		if beyond := n - nearestRank(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-nearestRank(q, n) >= 10 {
				t.Fatalf("n=%d: p%v also has ten beyond but p%v was chosen", n, q, p)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	s := summarize(xs)
	if s.n != 1000 || s.p50 != 500 || s.tailPct != 99 || s.tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s := summarize(xs[:5]); s.tailPct != 0 || s.tail != 0 || s.p50 != 998 {
		t.Fatalf("summarize of 5 samples = %+v, want a median and no tail", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.ns_per_event", "a-b.c_9"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "wall s", "ms/op", "p99%", "ключ"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric %q breaks the name grammar", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestBuildMetricsRejectsGaps(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN metric was accepted")
	}
	m, err := buildMetrics(defs, map[string]float64{"a": 1, "b": 2, "extra": 3})
	if err != nil || len(m) != 2 || m["b"] != (metricValue{2, "ms"}) {
		t.Errorf("buildMetrics = %v, %v", m, err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark's runner
// reads, in step with the metrics and workloads this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark:", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
}
