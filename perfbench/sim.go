package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"p3/internal/cluster"
	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/ring"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// simCell is one simulator workload: a fixed configuration run as a whole
// cell per operation.
type simCell struct {
	name      string
	machines  int
	servers   int // parameter servers the plan is cut for (1 on the ring)
	gbps      float64
	warmup    int
	measure   int
	protocol  string                                                        // "cluster" or "ring": the package whose Run the cell calls
	commBound func(machines int, payloadBytes int64, gbps float64) sim.Time // per-iteration lower bound; nil for none
	run       func(c *simCell, in simInput) simOut
	golden    fingerprint // the exact output
}

// simInput is what set-up builds and every cell reuses.
type simInput struct {
	model   *model.Model
	profile *sched.Profile
	plan    *core.Plan
	seed    int64
}

// simOut is a cell's Result reduced to what the checks and metrics read;
// raw keeps the Result itself for the determinism comparison.
type simOut struct {
	raw         any
	throughput  float64
	events      uint64
	msgs        int64
	wire        int64
	core        int64
	spine       int64
	iterTimes   []sim.Time // each measured iteration (cluster only)
	meanIter    sim.Time
	computeIter sim.Time
	measured    int
	stall       sim.Time // worker 0's layer stalls over the measured window
}

// fingerprint pins a cell's exact output.
type fingerprint struct {
	events                  uint64
	msgs, wire, core, spine int64
	iterTimes               []sim.Time
	meanIter                sim.Time
}

const benchModel = "resnet50"

// simCells are the simulator workloads. Iterations per cell: ps64 matches
// the repository's 64-machine scale benchmark; ring32 costs ~2.3 s per
// simulated iteration on a 2-CPU host, so it runs the minimum of one
// warm-up and one measured iteration; hier256 runs the simulator's default
// warm-up and two measured.
var simCells = map[string]*simCell{
	"ps64": {
		name: "ps64", machines: 64, servers: 64, gbps: 1.5, warmup: 1, measure: 3, protocol: "cluster",
		commBound: psBound,
		run: func(c *simCell, in simInput) simOut {
			return clusterOut(cluster.Run(cluster.Config{
				Model: in.model, Profile: in.profile, Machines: c.machines,
				Strategy: strategy.P3(0), BandwidthGbps: c.gbps,
				WarmupIters: c.warmup, MeasureIters: c.measure, Seed: in.seed,
			}))
		},
		golden: fingerprint{
			events: 1389008, msgs: 329216, wire: 52340801536,
			iterTimes: []sim.Time{1854828850, 1660971395, 1702450602},
		},
	},
	"ring32": {
		name: "ring32", machines: 32, servers: 1, gbps: 1.5, warmup: 1, measure: 1, protocol: "ring",
		commBound: ringBound,
		run: func(c *simCell, in simInput) simOut {
			st := strategy.Strategy{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"}
			r := ring.Run(ring.Config{
				Model: in.model, Profile: in.profile, Machines: c.machines,
				Strategy: st, BandwidthGbps: c.gbps,
				WarmupIters: c.warmup, MeasureIters: c.measure, Seed: in.seed,
			})
			return simOut{
				raw: r, throughput: r.Throughput, events: r.Events,
				meanIter: r.MeanIterTime, computeIter: r.ComputeIter,
				measured: r.MeasuredIters, stall: sumTimes(r.LayerStalls),
			}
		},
		golden: fingerprint{events: 10226304, meanIter: 1391286588},
	},
	"hier256": {
		name: "hier256", machines: 256, servers: 8, gbps: 1.5, warmup: 2, measure: 2, protocol: "cluster",
		run: func(c *simCell, in simInput) simOut {
			const rackSize, racks = 32, 8
			st, err := strategy.SlicingOnly(0).WithSched("damped")
			if err != nil {
				panic(err) // "damped" is a registered discipline
			}
			spread := make([]int, c.servers) // one server per rack
			for s := range spread {
				spread[s] = (s%racks)*rackSize + s/racks
			}
			return clusterOut(cluster.Run(cluster.Config{
				Model: in.model, Profile: in.profile, Machines: c.machines,
				Servers: c.servers, ServerMachines: spread,
				Strategy: st, BandwidthGbps: c.gbps,
				WarmupIters: c.warmup, MeasureIters: c.measure, Seed: in.seed,
				Topology: netsim.Topology{
					RackSize: rackSize, CoreOversub: 4, CoreSched: "damped",
					Pods: 2, SpineOversub: 4, SpineSched: "damped",
				},
				RackAggregation: true, HierAggregation: true,
				Shards: 2,
			}))
		},
		golden: fingerprint{
			events: 3809644, msgs: 666148, wire: 105908340608, core: 8178250240, spine: 1635650048,
			iterTimes: []sim.Time{924000143, 931541968},
		},
	},
}

func clusterOut(r cluster.Result) simOut {
	return simOut{
		raw: r, throughput: r.Throughput, events: r.Events,
		msgs: r.Msgs, wire: r.WireBytes, core: r.CoreBytes, spine: r.SpineBytes,
		iterTimes: r.IterTimes, meanIter: r.MeanIterTime, computeIter: r.ComputeIterTime,
		measured: r.MeasuredIters, stall: r.TotalStall(),
	}
}

func sumTimes(ts []sim.Time) sim.Time {
	var t sim.Time
	for _, x := range ts {
		t += x
	}
	return t
}

// bytesPerSec converts a NIC rate in Gbps to payload bytes per second.
func bytesPerSec(gbps float64) float64 { return gbps * 1e9 / 8 }

// psBound is the flat parameter server's per-iteration floor: with one
// server per machine, every worker pushes the (N-1)/N of its gradient that
// lives on other machines through its own NIC.
func psBound(n int, payload int64, gbps float64) sim.Time {
	return sim.FromSeconds(float64(n-1) / float64(n) * float64(payload) / bytesPerSec(gbps))
}

// ringBound is ring all-reduce's per-iteration floor: reduce-scatter and
// all-gather each send (N-1)/N of the gradient out of every NIC.
func ringBound(n int, payload int64, gbps float64) sim.Time {
	return 2 * psBound(n, payload, gbps)
}

// check returns why a cell's output is wrong, or nil.
func (c *simCell) check(out simOut, in simInput) error {
	if out.measured != c.measure {
		return fmt.Errorf("%d of %d measured iterations completed", out.measured, c.measure)
	}
	if c.protocol == "cluster" && len(out.iterTimes) != c.measure {
		return fmt.Errorf("%d iteration times for %d measured iterations", len(out.iterTimes), c.measure)
	}
	if out.computeIter <= 0 || out.meanIter <= 0 {
		return fmt.Errorf("non-positive iteration time (mean %v, compute %v)", out.meanIter, out.computeIter)
	}
	if cap := computeBound(c.machines, in.model.BatchSize, out.computeIter); out.throughput > cap*(1+1e-9) {
		return fmt.Errorf("throughput %.3f samples/s exceeds the compute-only bound %.3f", out.throughput, cap)
	}
	if c.commBound != nil {
		floor := c.commBound(c.machines, planBytes(in.plan), c.gbps)
		iters := out.iterTimes
		if c.protocol == "ring" {
			// ring.Result reports only the mean measured iteration.
			iters = []sim.Time{out.meanIter}
		}
		for i, t := range iters {
			if t < floor {
				return fmt.Errorf("iteration %d took %v, below the communication bound %v", i, t, floor)
			}
		}
	}
	// resnet50 has no compute jitter, so the seed does not reach the
	// Result and the fingerprint holds at every seed.
	if c.golden.events != 0 {
		got := fingerprint{events: out.events, msgs: out.msgs, wire: out.wire, core: out.core,
			spine: out.spine, iterTimes: out.iterTimes}
		if c.protocol == "ring" {
			got = fingerprint{events: out.events, meanIter: out.meanIter}
		}
		if !reflect.DeepEqual(got, c.golden) {
			return fmt.Errorf("output %+v differs from the pinned fingerprint %+v", got, c.golden)
		}
	}
	return nil
}

// computeBound is the throughput with communication free: every machine
// finishes one batch per pure-compute iteration.
func computeBound(machines, batch int, computeIter sim.Time) float64 {
	return float64(machines*batch) / computeIter.Seconds()
}

func planBytes(p *core.Plan) int64 {
	var n int64
	for _, c := range p.Chunks {
		n += c.Bytes()
	}
	return n
}

// setup builds the model, the timing profile and the slicing plan, the
// work a user pays before a cell can run.
func (c *simCell) setup(seed int64, tr *tracer) simInput {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	id := tr.begin("zoo.ByName", root)
	m := zoo.ByName(benchModel)
	tr.end(id)
	id = tr.begin("strategy.ComputeProfile", root)
	prof := strategy.ComputeProfile(m, c.gbps)
	tr.end(id)
	id = tr.begin("core.PartitionSlices", root)
	plan := core.PartitionSlices(m, 0, c.servers)
	tr.end(id)
	return simInput{model: m, profile: prof, plan: plan, seed: seed}
}

// cellSample is one timed operation.
type cellSample struct {
	wall    time.Duration
	scale   float64 // to reference-latency time: scale(probe before, probe after)
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func runSimWorkload(c *simCell, o options) (*report, error) {
	var setupTimes []float64
	var in simInput
	before := o.probe.ns()
	for i := 0; i < simSetupReps; i++ {
		t0 := time.Now()
		in = c.setup(o.seed, o.tracer)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	probes := []float64{before, o.probe.ns()}
	setupScale := scale(probes[0], probes[1])
	if err := in.plan.Validate(in.model); err != nil {
		return nil, fmt.Errorf("%s: slicing plan: %w", c.name, err)
	}

	rep := &report{}
	var (
		first        *simOut
		plain, trace []cellSample
		attr         = cpuAttribution{}
		lastProfile  []byte
	)
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.traced && i%2 == 1
		if time.Since(start) >= o.seconds && len(plain) > 0 && (!o.traced || len(trace) > 0) {
			break
		}
		runtime.GC()
		var prof bytes.Buffer
		var tr *tracer
		if traced {
			tr = o.tracer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		id := tr.begin("cell", 0)
		call := tr.begin(c.protocol+".Run", id)
		pre := takeCounters()
		out := c.run(c, in)
		after := takeCounters()
		tr.end(call)
		tr.end(id)
		s := after.sub(pre)
		if traced {
			pprof.StopCPUProfile()
		}
		probes = append(probes, o.probe.ns())
		s.scale = scale(probes[len(probes)-2], probes[len(probes)-1])
		if traced {
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			attr.add(samples)
			lastProfile = prof.Bytes()
			trace = append(trace, s)
		} else {
			plain = append(plain, s)
		}

		rep.attempted++
		err := c.check(out, in)
		if err == nil && first != nil && !reflect.DeepEqual(out.raw, first.raw) {
			err = fmt.Errorf("cell %d (traced=%v) returned a different Result than cell 0", i, traced)
		}
		if err != nil {
			rep.failed++
			rep.errs = append(rep.errs, fmt.Sprintf("%s cell %d: %v", c.name, i, err))
		}
		if first == nil {
			first = &out
		}
	}

	wall := median(each(plain, scaledWall))
	ev := float64(first.events)
	rep.e2e = map[string]float64{
		"wall_s":        wall,
		"samples_per_s": first.throughput,
		"peak_rss_mb":   peakRSSMB(),
		"setup_s":       median(setupTimes) * setupScale,
	}
	perIter := func(t sim.Time) float64 { return t.Millis() / float64(first.measured) }
	commOverhead := first.meanIter.Millis() - first.computeIter.Millis()
	layer := map[string]float64{
		"sim.events":       ev,
		"sim.ns_per_event": wall * 1e9 / ev,
		"sim.cpu_per_wall": median(each(plain, func(s cellSample) float64 {
			return s.cpu.Seconds() / s.wall.Seconds()
		})),
		"netsim.msgs":        float64(first.msgs),
		"netsim.wire_bytes":  float64(first.wire),
		"netsim.core_bytes":  float64(first.core),
		"netsim.spine_bytes": float64(first.spine),
		"runtime.allocs_per_event": median(each(plain, func(s cellSample) float64 {
			return float64(s.mallocs) / ev
		})),
		"runtime.bytes_per_event": median(each(plain, func(s cellSample) float64 {
			return float64(s.alloc) / ev
		})),
		"runtime.gc_cycles":    median(each(plain, func(s cellSample) float64 { return float64(s.gcs) })),
		"runtime.gc_pause_ms":  median(each(plain, func(s cellSample) float64 { return float64(s.pauseNs) / 1e6 })),
		"trace.overhead_share": median(each(trace, scaledWall))/wall - 1,
		"host.probe_ns":        median(probes),
		"host.wall_raw_s":      median(each(plain, func(s cellSample) float64 { return s.wall.Seconds() })),
	}
	layer[c.protocol+".comm_overhead_ms"] = commOverhead
	layer[c.protocol+".stall_ms"] = perIter(first.stall)
	addShares(layer, attr)
	zeroMissing(layer) // the TCP parameter server never runs here
	rep.layer = layer
	rep.profile = lastProfile
	return rep, nil
}

// scaledWall is an operation's wall time in reference-latency seconds.
func scaledWall(s cellSample) float64 { return s.wall.Seconds() * s.scale }
