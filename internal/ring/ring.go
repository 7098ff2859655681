// Package ring simulates data-parallel training over ring all-reduce
// instead of a parameter server. The paper argues (Sections 2 and 6) that
// P3's two principles — parameter slicing and priority-ordered transmission
// — "are general enough to be applied to any gradient aggregation method";
// this package substantiates that claim as an extension experiment: the
// same models, compute timing and network substrate as internal/cluster,
// but gradients are aggregated with the classic 2(N-1)-round ring
// reduce-scatter + all-gather, at either layer granularity (WFBP-style
// all-reduce, what Horovod-class systems did at the time) or P3-style
// sliced + priority-scheduled granularity.
//
// An all-reduce for a chunk can only begin once EVERY machine has produced
// that chunk's gradient (all ranks must enter the collective), so the
// ordering problem the paper identifies is, if anything, sharper here: the
// first layer's gradients — needed first in the next forward pass — become
// ready last and at layer granularity must wait behind the whole backlog of
// earlier collectives.
//
// Only the collective rounds live here. Each machine's compute timeline,
// forward stall accounting and makespan reduction are internal/worker's,
// shared with internal/cluster: a chunk's last ring round installs it on
// the worker, and each machine's reductions run through a one-thread
// worker.Pool.
package ring

import (
	"fmt"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/worker"
)

// Config describes one simulated all-reduce training run. Only the
// granularity and ordering of the strategy matter here (there are no
// parameter servers, so pull modes are meaningless). Warm-up, measured
// iterations, seed and the Result's stall and throughput figures follow
// internal/worker's timeline contract.
type Config struct {
	Model    *model.Model
	Machines int
	Strategy strategy.Strategy
	// BandwidthGbps is the per-direction NIC rate.
	BandwidthGbps float64
	// Profile optionally overrides the static FLOP-derived timing profile
	// handed to model-aware disciplines (tictac) — the hook behind the
	// calibrated two-pass mode (RunCalibrated), which re-runs with a
	// profile rebuilt from a prior run's measured stalls. nil selects the
	// static strategy.ComputeProfile.
	Profile *sched.Profile
	// ReduceRateGBps is the local cost of summing one received segment into
	// the accumulator (and, on the final round, applying the update).
	ReduceRateGBps float64
	ReduceOverhead sim.Time
	WarmupIters    int
	MeasureIters   int
	Seed           int64
	Recorder       *trace.Recorder
	// Engine optionally supplies a reusable simulation engine: Run calls
	// Reset on it and reuses its event slab, so a sweep driver can run many
	// simulations without re-growing the heap each time. nil allocates a
	// fresh engine. The ring path always runs on the single-shard engine:
	// each collective launches only when every machine has produced the
	// gradient — a global zero-latency barrier that admits no conservative
	// lookahead window (contrast cluster.Config.Shards).
	Engine *sim.Engine
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machines == 0 {
		out.Machines = 4
	}
	if out.ReduceRateGBps == 0 {
		out.ReduceRateGBps = 3
	}
	if out.ReduceOverhead == 0 {
		out.ReduceOverhead = 5 * sim.Microsecond
	}
	if out.WarmupIters == 0 {
		out.WarmupIters = 2
	}
	if out.MeasureIters == 0 {
		out.MeasureIters = 8
	}
	return out
}

// Result summarizes an all-reduce run.
type Result struct {
	Model         string
	Strategy      string
	Machines      int
	BandwidthGbps float64
	Throughput    float64 // aggregate samples/sec
	MeanIterTime  sim.Time
	ComputeIter   sim.Time
	// MeasuredIters is the measured iteration count (the divisor of
	// MeanLayerStalls).
	MeasuredIters int
	// LayerStalls[l] is machine 0's cumulative measured-window time spent
	// blocked at layer l waiting for its all-reduce to complete — the same
	// consumption-stall profile the cluster simulator reports, for feeding
	// measured timing back into a calibrated sched.Profile.
	LayerStalls []sim.Time
	Events      uint64
}

// MeanLayerStalls returns the per-iteration mean of LayerStalls, the form
// strategy.CalibrateProfile consumes.
func (r Result) MeanLayerStalls() []sim.Time {
	return strategy.MeanStalls(r.LayerStalls, r.MeasuredIters)
}

func (r Result) String() string {
	return fmt.Sprintf("allreduce %s/%s x%d @%gGbps: %.1f samples/s (iter %.1f ms)",
		r.Model, r.Strategy, r.Machines, r.BandwidthGbps, r.Throughput, r.MeanIterTime.Millis())
}

type chunkState struct {
	gradReady  int   // machines whose backward produced this chunk
	launched   bool  // ring started
	recvRounds []int // per machine: collective rounds received
	iter       int32
}

type ringSim struct {
	cfg    Config
	eng    *sim.Engine
	net    *netsim.Network
	plan   *core.Plan
	spec   *worker.Spec
	rounds int // 2*(N-1)
	// segBytes[c] is chunk c's per-round segment size: the tensor is cut
	// into N ring segments.
	segBytes []int64
	workers  []*worker.Worker
	// reduce[w] is machine w's reduction pool: one thread, so segments
	// reduce strictly one after another in the strategy's order. Items
	// carry the collective round in Src.
	reduce []*worker.Pool
	chunks []chunkState
}

// RunCalibrated is the two-pass calibrated mode: the first pass runs cfg as
// given (static FLOP-derived profile unless cfg.Profile overrides it) and
// records the per-layer consumption stalls it actually observed; the second
// pass re-runs with the profile rebuilt from those measured stalls
// (strategy.CalibrateProfile), so model-aware disciplines rank against the
// iteration timeline the cluster really produces instead of the idealized
// compute-only one. Both results are returned, first the static pass.
func RunCalibrated(cfg Config) (static, calibrated Result) {
	static = Run(cfg)
	cfg.Profile = strategy.CalibrateProfile(cfg.Model, cfg.BandwidthGbps, static.MeanLayerStalls())
	calibrated = Run(cfg)
	return static, calibrated
}

// Run executes one all-reduce training simulation.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		panic(fmt.Sprintf("ring: invalid model: %v", err))
	}
	if cfg.Machines < 2 {
		panic("ring: all-reduce needs at least 2 machines")
	}
	rs := newRingSim(cfg)
	rs.start()
	rs.eng.Run()
	return rs.result()
}

func newRingSim(cfg Config) *ringSim {
	n := cfg.Machines
	eng := cfg.Engine
	if eng != nil {
		eng.Reset()
	} else {
		eng = &sim.Engine{}
	}
	netCfg := netsim.DefaultConfig(cfg.BandwidthGbps)
	netCfg.Egress = cfg.Strategy.Discipline()
	prof := cfg.Profile
	if prof == nil {
		prof = strategy.ComputeProfile(cfg.Model, netCfg.BandwidthGbps)
	}
	netCfg.Profile = prof

	rs := &ringSim{
		cfg: cfg, eng: eng,
		// Partition with a single "server": all-reduce has no placement,
		// only granularity.
		plan:   cfg.Strategy.Partition(cfg.Model, 1),
		rounds: 2 * (n - 1),
	}
	rs.net = netsim.New(eng, n, netCfg, rs.deliver, cfg.Recorder)

	rs.segBytes = make([]int64, rs.plan.NumChunks())
	rs.chunks = make([]chunkState, rs.plan.NumChunks())
	for i := range rs.chunks {
		rs.chunks[i] = chunkState{recvRounds: make([]int, n), iter: -1}
		rs.segBytes[i] = max(rs.plan.Chunks[i].Bytes()/int64(n), 1)
	}

	rs.spec = &worker.Spec{
		Timing: model.NewTiming(cfg.Model),
		Plan:   rs.plan,
		Warmup: cfg.WarmupIters,
		Total:  cfg.WarmupIters + cfg.MeasureIters,
	}
	jitter := worker.Jitter(cfg.Seed, 0x51ce, cfg.Model.ComputeJitter, n, rs.spec.Total)
	// Each machine's reduction queue runs the strategy's discipline on a
	// fresh instance, mirroring the receiver-side consumer of Section 4.2.
	redView := func(it worker.Item) sched.Item {
		return sched.Item{Priority: it.Priority, Bytes: rs.segBytes[it.Chunk]}
	}
	rs.workers = make([]*worker.Worker, n)
	rs.reduce = make([]*worker.Pool, n)
	for w := range rs.workers {
		rs.workers[w] = worker.New(eng, rs.spec, jitter[w], worker.Hooks{
			GradReady: func(l int, iter int32) {
				for _, id := range rs.plan.LayerChunks(l) {
					rs.gradProduced(int32(id), iter)
				}
			},
		})
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(w)) // owner seed for source-aware disciplines
		rs.reduce[w] = worker.NewPool(1, cfg.ReduceOverhead, cfg.ReduceRateGBps, rs.segBytes,
			sched.NewQueue(disc, redView), eng, func(it worker.Item) { rs.roundDone(w, it) })
	}
	return rs
}

func (rs *ringSim) start() {
	if rs.cfg.Recorder != nil {
		rs.cfg.Recorder.Start(0)
	}
	for _, w := range rs.workers {
		w.Start()
	}
}

// gradProduced counts backward completions; the collective launches when
// every rank has entered it.
func (rs *ringSim) gradProduced(chunk, iter int32) {
	cst := &rs.chunks[chunk]
	if cst.iter != iter {
		cst.iter = iter
		cst.gradReady = 0
		cst.launched = false
		for i := range cst.recvRounds {
			cst.recvRounds[i] = 0
		}
	}
	cst.gradReady++
	if cst.gradReady == rs.cfg.Machines && !cst.launched {
		cst.launched = true
		for m := 0; m < rs.cfg.Machines; m++ {
			rs.sendRound(m, chunk, iter, 0)
		}
	}
}

func (rs *ringSim) sendRound(from int, chunk, iter int32, round int32) {
	to := (from + 1) % rs.cfg.Machines
	rs.net.Send(netsim.Message{
		From: from, To: to, Bytes: rs.segBytes[chunk],
		Priority: int32(rs.plan.Chunks[chunk].Priority),
		Kind:     1, Chunk: chunk, Iter: iter, Src: round,
	})
}

// deliver: a ring segment arrived; queue its local reduction, priority
// ordered under P3 — the receiver-side consumer of Section 4.2
// transplanted onto the all-reduce.
func (rs *ringSim) deliver(m netsim.Message) {
	rs.reduce[m.To].Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
}

func (rs *ringSim) roundDone(w int, it worker.Item) {
	cst := &rs.chunks[it.Chunk]
	if cst.iter != it.Iter {
		return // stale segment from a previous iteration's tail
	}
	cst.recvRounds[w]++
	if int(it.Src)+1 < rs.rounds {
		rs.sendRound(w, it.Chunk, it.Iter, it.Src+1)
	}
	if cst.recvRounds[w] == rs.rounds {
		rs.workers[w].Arrived(rs.plan.Chunks[it.Chunk].Layer, it.Iter)
	}
}

func (rs *ringSim) result() Result {
	sum := worker.Summarize(rs.workers, rs.cfg.Model.BatchSize,
		fmt.Sprintf("ring %s/%s x%d", rs.cfg.Model.Name, rs.cfg.Strategy.Name, rs.cfg.Machines))
	return Result{
		Model:         rs.cfg.Model.Name,
		Strategy:      rs.cfg.Strategy.Name,
		Machines:      rs.cfg.Machines,
		BandwidthGbps: rs.cfg.BandwidthGbps,
		Throughput:    sum.Throughput,
		MeanIterTime:  sum.MeanIterTime,
		ComputeIter:   rs.spec.Timing.IterCompute,
		MeasuredIters: rs.cfg.MeasureIters,
		LayerStalls:   rs.workers[0].Stalls(),
		Events:        rs.eng.Processed(),
	}
}
