package ring

import (
	"math"
	"testing"

	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// ringGolden is one pre-refactor reference result, captured from the tree
// before the model-aware scheduling wiring (sched.Profile threading, the
// tictac/credit-adaptive disciplines) on resnet110, 4 machines, warmup 2,
// measure 4, seed 1 — mirroring internal/cluster/golden_test.go so the ring
// path's wiring cannot drift either. Throughput is stored as float64 bits
// so the comparison is exact.
type ringGolden struct {
	Strategy       string
	Granularity    strategy.Granularity
	Sched          string
	ThroughputBits uint64
	MeanIterTime   sim.Time
	ComputeIter    sim.Time
	Events         uint64
}

// ringGoldens10 was captured at 10 Gbps (compute-bound) and ringGoldens15
// at 1.5 Gbps (communication-bound: priority separates from fifo). Together
// they pin both regimes for the fifo and p3 disciplines.
var ringGoldens10 = []ringGolden{
	{
		Strategy: "ar-layer", Granularity: strategy.Shards, Sched: "fifo",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-p3", Granularity: strategy.Slices, Sched: "p3",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
}

var ringGoldens15 = []ringGolden{
	{
		Strategy: "ar-layer", Granularity: strategy.Shards, Sched: "fifo",
		ThroughputBits: 0x40ac0c8f8331d64f,
		MeanIterTime:   142607250,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo",
		ThroughputBits: 0x40ac0c8f8331d64f,
		MeanIterTime:   142607250,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-p3", Granularity: strategy.Slices, Sched: "p3",
		ThroughputBits: 0x40ac0d68c328083c,
		MeanIterTime:   142590398,
		ComputeIter:    142221830,
		Events:         209040,
	},
}

// TestRingGoldenParity asserts that the fifo and p3 disciplines produce
// bit-identical ring all-reduce Results through the profile-threaded wiring
// that they produced before it existed — threading model knowledge to the
// disciplines that want it must not move a single event for the ones that
// do not.
func TestRingGoldenParity(t *testing.T) {
	cases := []struct {
		gbps    float64
		goldens []ringGolden
	}{
		{10, ringGoldens10},
		{1.5, ringGoldens15},
	}
	for _, c := range cases {
		for _, g := range c.goldens {
			st := strategy.Strategy{Name: g.Strategy, Granularity: g.Granularity, Sched: g.Sched}
			checkGolden(t, g, c.gbps, runGolden(t, st, c.gbps))
		}
	}
}

// runGolden executes one golden configuration.
func runGolden(t *testing.T, st strategy.Strategy, gbps float64) Result {
	t.Helper()
	return Run(Config{
		Model:         zoo.ByName("resnet110"),
		Machines:      4,
		Strategy:      st,
		BandwidthGbps: gbps,
		WarmupIters:   2,
		MeasureIters:  4,
		Seed:          1,
	})
}

func checkGolden(t *testing.T, g ringGolden, gbps float64, r Result) {
	t.Helper()
	if got := math.Float64bits(r.Throughput); got != g.ThroughputBits {
		t.Errorf("%s@%g: throughput bits %#x, want %#x (%.6f vs %.6f)",
			g.Strategy, gbps, got, g.ThroughputBits,
			r.Throughput, math.Float64frombits(g.ThroughputBits))
	}
	if r.MeanIterTime != g.MeanIterTime {
		t.Errorf("%s@%g: mean iter %d, want %d", g.Strategy, gbps, r.MeanIterTime, g.MeanIterTime)
	}
	if r.ComputeIter != g.ComputeIter {
		t.Errorf("%s@%g: compute iter %d, want %d", g.Strategy, gbps, r.ComputeIter, g.ComputeIter)
	}
	if r.Events != g.Events {
		t.Errorf("%s@%g: events %d, want %d", g.Strategy, gbps, r.Events, g.Events)
	}
}
