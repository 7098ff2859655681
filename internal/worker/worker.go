// Package worker is the simulated training worker that both aggregation
// paths share: internal/cluster (parameter server) and internal/ring (ring
// all-reduce) differ only in how gradients travel and come back, so the
// timeline a worker runs on, and the stall it pays, live here once.
//
// # The timeline contract
//
// A worker runs Spec.Total iterations, the first Spec.Warmup of them
// warm-up. Each iteration is a forward pass over layers 0..L-1 followed
// by a backward pass over L-1..0, one compute step per layer, each step's
// duration the layer's model.Timing cost scaled by the worker's jitter
// draw for that iteration. Steps are scheduled on the sim.Proc the caller
// hands to New; a caller that wants compute slowed or paused (the
// cluster's straggler and leave windows) wraps that Proc, so this package
// has no fault branches.
//
// The protocol hooks into three timeline events (Hooks):
//
//   - GradReady(l, iter): layer l's backward step ended; its gradient
//     chunks exist and may start aggregating.
//   - BackwardDone(iter): the whole backward pass ended. Its instant is
//     the iteration's completion time on this worker.
//   - WaitBegan(l, iter): the forward pass blocked at layer l.
//
// and reports back one event: Arrived(l, iter), one call per chunk of
// layer l (core.Plan.LayerChunks) whose aggregated iteration-iter value is
// now installed. When the last chunk of a layer arrives, the layer is
// ready for the next iteration's forward pass.
//
// # The stall
//
// Forward step l of iteration i may start only once layer l's parameters
// from iteration i-1 are ready (iteration 0 runs on the initial
// parameters). A worker that reaches layer l before then waits; the wait
// — from the moment it blocked to the moment the layer's last chunk
// arrived — is layer l's stall. Stalls are charged only in measured
// iterations (i >= Spec.Warmup) and accumulate per layer in Stalls: the
// queueing delay the paper's Figures 1 and 4 illustrate, and the signal
// the calibrated profile mode feeds back into scheduling.
//
// # The run
//
// An iteration's makespan is the latest BackwardDone over all workers;
// Summarize reduces the makespans to the warm-up end, per-iteration times,
// mean iteration time and throughput, and refuses a run in which some
// worker never finished (a wedged protocol). Pool is the endpoint
// processing pool both protocols put received data through.
package worker

import (
	"fmt"
	"math"
	"math/rand/v2"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/sim"
)

// Spec is the part of the timeline every worker of a run shares.
type Spec struct {
	Timing *model.Timing
	// Plan maps chunks to layers: a layer is ready once all of its chunks
	// arrived.
	Plan   *core.Plan
	Warmup int // warm-up iterations, never charged stalls
	Total  int // warm-up plus measured iterations
}

// Hooks are the protocol's view of the timeline. A nil hook is skipped.
type Hooks struct {
	// GradReady runs when layer l's backward step of iteration iter ends.
	GradReady func(l int, iter int32)
	// BackwardDone runs when iteration iter's backward pass ends, after
	// GradReady(0, iter) and before iteration iter+1's forward pass starts.
	BackwardDone func(iter int32)
	// WaitBegan runs when iteration iter's forward pass blocks at layer l,
	// whose iteration iter-1 parameters are still missing.
	WaitBegan func(l int, iter int32)
}

// Worker is one simulated worker's compute timeline.
type Worker struct {
	proc   sim.Proc
	spec   *Spec
	jitter []float64 // per iteration
	hooks  Hooks

	readyIter []int32 // per layer: iteration whose parameters are installed (-1 = initial)
	arrived   []int   // per layer: chunks installed for the in-flight sync
	fwdLayer  int
	waiting   bool
	waitSince sim.Time
	cur       int32
	bwdDone   []sim.Time // per iteration
	stalls    []sim.Time // per layer, measured iterations only
}

// New returns a worker that schedules its compute on proc, scaling
// iteration i's steps by jitter[i] (see Jitter).
func New(proc sim.Proc, spec *Spec, jitter []float64, h Hooks) *Worker {
	layers := len(spec.Timing.Fwd)
	w := &Worker{
		proc:      proc,
		spec:      spec,
		jitter:    jitter,
		hooks:     h,
		readyIter: make([]int32, layers),
		arrived:   make([]int, layers),
		bwdDone:   make([]sim.Time, spec.Total),
		stalls:    make([]sim.Time, layers),
	}
	for l := range w.readyIter {
		w.readyIter[l] = -1
	}
	return w
}

// Start begins iteration 0's forward pass.
func (w *Worker) Start() { w.advanceForward() }

// Stalls returns the cumulative measured-window stall per layer.
func (w *Worker) Stalls() []sim.Time { return w.stalls }

// Waiting reports the layer and iteration the forward pass is blocked at,
// if it is blocked.
func (w *Worker) Waiting() (l int, iter int32, ok bool) {
	return w.fwdLayer, w.cur, w.waiting
}

// Arrived records that one chunk of layer l's iteration-iter parameters
// is installed. The layer's last chunk makes it ready and resumes a
// forward pass blocked on it.
func (w *Worker) Arrived(l int, iter int32) {
	w.arrived[l]++
	if w.arrived[l] < len(w.spec.Plan.LayerChunks(l)) {
		return
	}
	w.arrived[l] = 0
	w.readyIter[l] = iter
	if w.waiting && w.fwdLayer == l {
		w.advanceForward()
	}
}

func (w *Worker) scaled(d sim.Time) sim.Time {
	return sim.Time(float64(d) * w.jitter[w.cur])
}

func (w *Worker) advanceForward() {
	if w.fwdLayer == len(w.readyIter) {
		w.stepBackward(len(w.readyIter) - 1)
		return
	}
	l := w.fwdLayer
	if w.readyIter[l] < w.cur-1 {
		if !w.waiting {
			w.waiting = true
			w.waitSince = w.proc.Now()
			if w.hooks.WaitBegan != nil {
				w.hooks.WaitBegan(l, w.cur)
			}
		}
		return
	}
	if w.waiting {
		w.waiting = false
		if w.cur >= int32(w.spec.Warmup) {
			w.stalls[l] += w.proc.Now() - w.waitSince
		}
	}
	w.proc.After(w.scaled(w.spec.Timing.Fwd[l]), func() {
		w.fwdLayer = l + 1
		w.advanceForward()
	})
}

func (w *Worker) stepBackward(l int) {
	w.proc.After(w.scaled(w.spec.Timing.Bwd[l]), func() {
		if w.hooks.GradReady != nil {
			w.hooks.GradReady(l, w.cur)
		}
		if l > 0 {
			w.stepBackward(l - 1)
			return
		}
		w.bwdDone[w.cur] = w.proc.Now()
		if w.hooks.BackwardDone != nil {
			w.hooks.BackwardDone(w.cur)
		}
		w.cur++
		if w.cur < int32(w.spec.Total) {
			w.fwdLayer = 0
			w.advanceForward()
		}
	})
}

// Jitter draws a run's per-(worker, iteration) compute multipliers:
// lognormal with mean 1 and log-standard-deviation sigma, from one PCG
// stream seeded (seed, seed^salt) and drawn worker-major before the run
// starts, so event order cannot perturb the sequence. sigma 0 draws
// nothing and yields all ones.
func Jitter(seed int64, salt uint64, sigma float64, workers, iters int) [][]float64 {
	out := make([][]float64, workers)
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(seed)^salt))
	for w := range out {
		out[w] = make([]float64, iters)
		for i := range out[w] {
			if sigma == 0 {
				out[w][i] = 1
				continue
			}
			out[w][i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
	}
	return out
}

// Summary is a run's makespan reduction.
type Summary struct {
	// WarmupEnd is the makespan of the last warm-up iteration: the virtual
	// time measurement begins.
	WarmupEnd sim.Time
	// IterTimes holds each measured iteration's makespan increment.
	IterTimes    []sim.Time
	MeanIterTime sim.Time
	// Throughput is samples per second summed over all workers, each
	// iteration processing batch samples per worker.
	Throughput float64
}

// Summarize reduces the workers' completion times, after the engine has
// drained, to the run's Summary. It panics naming run if some worker never
// finished its last iteration: the protocol wedged, and any number
// computed from the run would be nonsense.
func Summarize(ws []*Worker, batch int, run string) Summary {
	spec := ws[0].spec
	for i, w := range ws {
		if w.bwdDone[spec.Total-1] == 0 {
			panic(fmt.Sprintf("%s: worker %d never finished iteration %d: protocol wedged", run, i, spec.Total-1))
		}
	}
	makespan := func(iter int) sim.Time {
		var t sim.Time
		for _, w := range ws {
			t = max(t, w.bwdDone[iter])
		}
		return t
	}
	s := Summary{
		WarmupEnd: makespan(spec.Warmup - 1),
		IterTimes: make([]sim.Time, 0, spec.Total-spec.Warmup),
	}
	prev := s.WarmupEnd
	for i := spec.Warmup; i < spec.Total; i++ {
		t := makespan(i)
		s.IterTimes = append(s.IterTimes, t-prev)
		prev = t
	}
	elapsed := prev - s.WarmupEnd
	s.MeanIterTime = elapsed / sim.Time(len(s.IterTimes))
	s.Throughput = float64(len(s.IterTimes)*len(ws)*batch) / elapsed.Seconds()
	return s
}
