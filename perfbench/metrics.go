package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's contract with BENCHMARK.json (checked by a test).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"samples_per_s", "samples/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed by the traced run; a layer a workload never enters
// reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "share"},
	{"sim.cpu_per_wall", "ratio"},
	{"sched.cpu_share", "share"},
	{"pq.cpu_share", "share"},
	{"netsim.cpu_share", "share"},
	{"netsim.msgs", "count"},
	{"netsim.wire_bytes", "B"},
	{"netsim.core_bytes", "B"},
	{"netsim.spine_bytes", "B"},
	{"cluster.cpu_share", "share"},
	{"ring.cpu_share", "share"},
	{"cluster.comm_overhead_ms", "ms"},
	{"ring.comm_overhead_ms", "ms"},
	{"cluster.stall_ms", "ms"},
	{"ring.stall_ms", "ms"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.bytes_per_event", "B/event"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_share", "share"},
	{"runtime.alloc_bytes_per_payload_byte", "ratio"},
	{"pstcp.goodput_mb_s", "MB/s"},
	{"pstcp.key_latency_ms_p50", "ms"},
	{"pstcp.key_latency_ms_tail", "ms"},
	{"pstcp.key_latency_tail_pct", "%"},
	{"pstcp.key_latency_samples", "count"},
	{"pstcp.push_call_us_p50", "us"},
	{"pstcp.head_layer_ms_p50", "ms"},
	{"pstcp.send_queue_max", "count"},
	{"pstcp.pushes", "count"},
	{"pstcp.updates", "count"},
	{"pstcp.reconnects", "count"},
	{"pstcp.cpu_share", "share"},
	{"transport.cpu_share", "share"},
	{"net.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"trace.overhead_share", "share"},
	{"host.probe_ns", "ns"},
	{"host.wall_raw_s", "s"},
}

// metricName is the grammar every metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics selects the values of defs from vals, failing if any is
// missing, non-finite or misnamed, so a run never prints a partial set.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !metricName.MatchString(d.name) {
			return nil, fmt.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	return string(b)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples strictly beyond its nearest rank, or 0 when even
// the median has not (fewer than 20 samples).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile among n samples,
// ceil(p*n/100) computed in hundredths of a percent so that 99.9 of 1000
// is rank 999, not a rounding error above it.
func nearestRank(p float64, n int) int {
	hp := int(math.Round(p * 100))
	rank := (hp*n + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	return rank
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// latencySummary is a timing reported as its median, the highest
// percentile with ten samples beyond it, and the sample count.
type latencySummary struct {
	p50, tail, tailPct float64
	n                  int
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := tailPercentile(len(s))
	out := latencySummary{p50: percentile(s, 50), tailPct: pct, n: len(s)}
	if pct > 0 {
		out.tail = percentile(s, pct)
	}
	return out
}

// zeroMissing reports every per-layer metric a workload did not measure
// as 0: the layer was not entered.
func zeroMissing(layer map[string]float64) {
	for _, d := range perLayer {
		if _, ok := layer[d.name]; !ok {
			layer[d.name] = 0
		}
	}
}

func addShares(layer map[string]float64, attr cpuAttribution) {
	for l, v := range attr.shares() {
		layer[l+".cpu_share"] = v
	}
}

// each maps f over xs.
func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
