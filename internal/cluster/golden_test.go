package cluster

import (
	"math"
	"testing"

	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// golden is one pre-refactor reference result, captured from the seed tree
// (ad-hoc bool/enum ordering, before the sched.Discipline extraction) on
// resnet110, 4 machines, warmup 2, measure 4, seed 1. Throughput is stored
// as float64 bits so the comparison is exact.
type golden struct {
	Strategy        string
	ThroughputBits  uint64
	MeanIterTime    sim.Time
	IterTimes       []sim.Time
	ComputeIterTime sim.Time
	Events          uint64
	Msgs            int64
	WireBytes       int64
	TotalStall      sim.Time
}

// goldens10 was captured at 10 Gbps (compute-bound: the immediate-broadcast
// strategies coincide) and goldens15 at 1.5 Gbps (communication-bound: every
// strategy separates). Together they pin both regimes.
var goldens10 = []golden{
	{
		Strategy:        "baseline",
		ThroughputBits:  0x40ac15727d8d10a4,
		MeanIterTime:    142430978,
		IterTimes:       []sim.Time{142430978, 142430978, 142430978, 142430978},
		ComputeIterTime: 142221830,
		Events:          112560,
		Msgs:            32160,
		WireBytes:       332554368,
		TotalStall:      836592,
	},
	{
		Strategy:        "tensorflow",
		ThroughputBits:  0x40ab837aa89ccfae,
		MeanIterTime:    145382698,
		IterTimes:       []sim.Time{144326412, 144336697, 144309719, 148557964},
		ComputeIterTime: 142221830,
		Events:          92460,
		Msgs:            24120,
		WireBytes:       332425728,
		TotalStall:      9447562,
	},
	{
		Strategy:        "wfbp",
		ThroughputBits:  0x40ac1a0c92263a0d,
		MeanIterTime:    142339868,
		IterTimes:       []sim.Time{142339868, 142339868, 142339868, 142339868},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      472152,
	},
	{
		Strategy:        "slicing",
		ThroughputBits:  0x40ac1a0c92263a0d,
		MeanIterTime:    142339868,
		IterTimes:       []sim.Time{142339868, 142339868, 142339868, 142339868},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      472152,
	},
	{
		Strategy:        "p3",
		ThroughputBits:  0x40ac1a0c92263a0d,
		MeanIterTime:    142339868,
		IterTimes:       []sim.Time{142339868, 142339868, 142339868, 142339868},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      472152,
	},
	{
		Strategy:        "asgd",
		ThroughputBits:  0x40ac1b00b3de3fd3,
		MeanIterTime:    142321002,
		IterTimes:       []sim.Time{142321002, 142321002, 142321002, 142321002},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      396688,
	},
}

var goldens15 = []golden{
	{
		Strategy:        "baseline",
		ThroughputBits:  0x40ac0fa9a0e70e9a,
		MeanIterTime:    142545670,
		IterTimes:       []sim.Time{142545670, 142545670, 142545670, 142545670},
		ComputeIterTime: 142221830,
		Events:          112560,
		Msgs:            32160,
		WireBytes:       332554368,
		TotalStall:      1295360,
	},
	{
		Strategy:        "tensorflow",
		ThroughputBits:  0x40aa96d6d04a6cd9,
		MeanIterTime:    150436933,
		IterTimes:       []sim.Time{144787209, 145048654, 146151290, 165760579},
		ComputeIterTime: 142221830,
		Events:          92460,
		Msgs:            24120,
		WireBytes:       332425728,
		TotalStall:      32967614,
	},
	{
		Strategy:        "wfbp",
		ThroughputBits:  0x40ac13e22640b1ef,
		MeanIterTime:    142461966,
		IterTimes:       []sim.Time{142461966, 142461966, 142461966, 142461966},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      960544,
	},
	{
		Strategy:        "slicing",
		ThroughputBits:  0x40ac1122c12e86bc,
		MeanIterTime:    142516444,
		IterTimes:       []sim.Time{142388612, 142559055, 142559055, 142559055},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      1203304,
	},
	{
		Strategy:        "p3",
		ThroughputBits:  0x40ac146271b88719,
		MeanIterTime:    142452034,
		IterTimes:       []sim.Time{142388612, 142515456, 142388612, 142515456},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      914212,
	},
	{
		Strategy:        "asgd",
		ThroughputBits:  0x40ac17dd3067191a,
		MeanIterTime:    142383114,
		IterTimes:       []sim.Time{142408187, 142390776, 142366748, 142366748},
		ComputeIterTime: 142221830,
		Events:          72360,
		Msgs:            16080,
		WireBytes:       332297088,
		TotalStall:      590840,
	},
}

// runGolden executes one golden configuration.
func runGolden(t *testing.T, name string, gbps float64) Result {
	t.Helper()
	st, err := strategy.ByName(name)
	if err != nil {
		t.Fatalf("strategy %q: %v", name, err)
	}
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

// checkGolden asserts r matches g bit-for-bit.
func checkGolden(t *testing.T, g golden, gbps float64, r Result) {
	t.Helper()
	if got := math.Float64bits(r.Throughput); got != g.ThroughputBits {
		t.Errorf("%s@%g: throughput bits %#x, want %#x (%.6f vs %.6f)",
			g.Strategy, gbps, got, g.ThroughputBits,
			r.Throughput, math.Float64frombits(g.ThroughputBits))
	}
	if r.MeanIterTime != g.MeanIterTime {
		t.Errorf("%s@%g: mean iter %d, want %d", g.Strategy, gbps, r.MeanIterTime, g.MeanIterTime)
	}
	if r.ComputeIterTime != g.ComputeIterTime {
		t.Errorf("%s@%g: compute iter %d, want %d", g.Strategy, gbps, r.ComputeIterTime, g.ComputeIterTime)
	}
	if len(r.IterTimes) != len(g.IterTimes) {
		t.Fatalf("%s@%g: %d iter times, want %d", g.Strategy, gbps, len(r.IterTimes), len(g.IterTimes))
	}
	for i := range g.IterTimes {
		if r.IterTimes[i] != g.IterTimes[i] {
			t.Errorf("%s@%g: iter %d time %d, want %d", g.Strategy, gbps, i, r.IterTimes[i], g.IterTimes[i])
		}
	}
	if r.Events != g.Events || r.Msgs != g.Msgs || r.WireBytes != g.WireBytes {
		t.Errorf("%s@%g: events/msgs/bytes %d/%d/%d, want %d/%d/%d",
			g.Strategy, gbps, r.Events, r.Msgs, r.WireBytes, g.Events, g.Msgs, g.WireBytes)
	}
	if r.TotalStall() != g.TotalStall {
		t.Errorf("%s@%g: total stall %d, want %d", g.Strategy, gbps, r.TotalStall(), g.TotalStall)
	}
}

// TestGoldenParityWithSeed asserts that every pre-existing strategy produces
// bit-identical Results through the sched.Discipline path that it produced
// through the seed's hardcoded bool/enum ordering — the refactor moved the
// policy, it must not have moved a single event.
func TestGoldenParityWithSeed(t *testing.T) {
	cases := []struct {
		gbps    float64
		goldens []golden
	}{
		{10, goldens10},
		{1.5, goldens15},
	}
	for _, c := range cases {
		for _, g := range c.goldens {
			checkGolden(t, g, c.gbps, runGolden(t, g.Strategy, c.gbps))
		}
	}
}

// TestRegistryPresetEquivalence: a preset strategy and the same strategy
// with its discipline spelled through the registry name must be
// indistinguishable — the name IS the policy.
func TestRegistryPresetEquivalence(t *testing.T) {
	base := strategy.SlicingOnly(0)
	viaRegistry, err := base.WithSched("p3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(s strategy.Strategy) Result {
		return Run(Config{
			Model: zoo.ByName("resnet110"), Machines: 4, Strategy: s,
			BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 3, Seed: 1,
		})
	}
	a := run(strategy.P3(0))
	b := run(viaRegistry)
	if a.Throughput != b.Throughput || a.MeanIterTime != b.MeanIterTime ||
		a.Events != b.Events || a.WireBytes != b.WireBytes {
		t.Fatalf("p3 preset %+v != slicing+WithSched(p3) %+v", a, b)
	}
}
