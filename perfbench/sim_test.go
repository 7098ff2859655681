package main

import (
	"math"
	"strings"
	"testing"

	"p3/internal/core"
	"p3/internal/sim"
	"p3/internal/zoo"
)

func TestCommBounds(t *testing.T) {
	// 100 MB at 8 Gbps (1 GB/s) takes 0.1 s; a flat PS over 4 machines
	// sends 3/4 of it off-machine, a ring twice that.
	const payload, gbps = 100_000_000, 8
	if got, want := psBound(4, payload, gbps), 75*sim.Millisecond; got != want {
		t.Errorf("psBound = %v, want %v", got, want)
	}
	if got, want := ringBound(4, payload, gbps), 150*sim.Millisecond; got != want {
		t.Errorf("ringBound = %v, want %v", got, want)
	}
	if got := psBound(1, payload, gbps); got != 0 {
		t.Errorf("one machine sends nothing off-machine, got %v", got)
	}
	// 4 machines x 32 samples per 0.5 s compute-only iteration.
	if got := computeBound(4, 32, 500*sim.Millisecond); math.Abs(got-256) > 1e-9 {
		t.Errorf("computeBound = %v, want 256", got)
	}
}

// okOut is a ps64-shaped output that passes every check but the
// fingerprint, which a test cell can switch off.
func okOut(c *simCell, in simInput) simOut {
	floor := c.commBound(c.machines, planBytes(in.plan), c.gbps)
	iter := floor + sim.Millisecond
	compute := 100 * sim.Millisecond
	return simOut{
		throughput: computeBound(c.machines, in.model.BatchSize, iter),
		iterTimes:  []sim.Time{iter, iter, iter},
		meanIter:   iter, computeIter: compute, measured: c.measure,
	}
}

func TestCheckCatchesWrongOutputs(t *testing.T) {
	pinned := simCells["ps64"]
	c := *pinned
	c.golden = fingerprint{}
	m := zoo.ByName(benchModel)
	in := simInput{model: m, plan: core.PartitionSlices(m, 0, c.servers), seed: 2}
	if err := c.check(okOut(&c, in), in); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*simOut)
		want   string
	}{
		{"too fast", func(o *simOut) { o.throughput = computeBound(c.machines, m.BatchSize, o.computeIter) * 1.01 }, "compute-only bound"},
		{"below comm floor", func(o *simOut) { o.iterTimes = []sim.Time{o.iterTimes[0], 1, o.iterTimes[2]} }, "communication bound"},
		{"lost iteration", func(o *simOut) { o.measured-- }, "measured iterations completed"},
		{"missing iteration time", func(o *simOut) { o.iterTimes = o.iterTimes[:2] }, "iteration times"},
	} {
		out := okOut(&c, in)
		tc.mutate(&out)
		if err := c.check(out, in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := pinned.check(okOut(&c, in), in); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("output off the pinned fingerprint: check = %v", err)
	}
}

func TestRingCheckUsesMeanIteration(t *testing.T) {
	c := *simCells["ring32"]
	c.golden = fingerprint{}
	m := zoo.ByName(benchModel)
	in := simInput{model: m, plan: core.PartitionSlices(m, 0, c.servers), seed: 2}
	floor := ringBound(c.machines, planBytes(in.plan), c.gbps)
	out := simOut{throughput: 1, meanIter: floor - 1, computeIter: sim.Millisecond, measured: c.measure}
	if err := c.check(out, in); err == nil || !strings.Contains(err.Error(), "communication bound") {
		t.Errorf("ring iteration below 2(N-1)/N*S/B: check = %v", err)
	}
	out.meanIter = floor
	if err := c.check(out, in); err != nil {
		t.Errorf("ring iteration at the bound rejected: %v", err)
	}
}
