package worker

import (
	"fmt"
	"strings"
	"testing"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/sched"
	"p3/internal/sim"
)

// A three-layer model with hand-picked step costs: forward 10+20+30 ns,
// backward 40+50+60 ns, 210 ns per iteration. Layer 1 has two chunks.
func testSpec(warmup, total int) *Spec {
	return &Spec{
		Timing: &model.Timing{
			Fwd:         []sim.Time{10, 20, 30},
			Bwd:         []sim.Time{40, 50, 60},
			IterCompute: 210,
		},
		Plan:   &core.Plan{ByLayer: [][]int{{0}, {1, 2}, {3}}},
		Warmup: warmup,
		Total:  total,
	}
}

const iterCompute = 210

func ones(n int) []float64 {
	j := make([]float64, n)
	for i := range j {
		j[i] = 1
	}
	return j
}

// loopback builds a worker whose every chunk comes back delay(chunk, iter)
// after its layer's gradient is ready: the protocol reduced to a delay.
func loopback(eng *sim.Engine, spec *Spec, jitter []float64, delay func(chunk int, iter int32) sim.Time) *Worker {
	var w *Worker
	w = New(eng, spec, jitter, Hooks{GradReady: func(l int, iter int32) {
		for _, c := range spec.Plan.LayerChunks(l) {
			eng.After(delay(c, iter), func() { w.Arrived(l, iter) })
		}
	}})
	return w
}

func run(t *testing.T, spec *Spec, delay func(chunk int, iter int32) sim.Time) *Worker {
	t.Helper()
	eng := &sim.Engine{}
	w := loopback(eng, spec, ones(spec.Total), delay)
	w.Start()
	eng.Run()
	return w
}

func noDelay(int, int32) sim.Time { return 0 }

func TestReadyLayersRunAtComputeTime(t *testing.T) {
	spec := testSpec(1, 4)
	w := run(t, spec, noDelay)
	for i, done := range w.bwdDone {
		if want := sim.Time(iterCompute * (i + 1)); done != want {
			t.Errorf("iteration %d finished at %d ns, want %d", i, done, want)
		}
	}
	for l, s := range w.Stalls() {
		if s != 0 {
			t.Errorf("layer %d stalled %d ns with every layer ready", l, s)
		}
	}
	sum := Summarize([]*Worker{w}, 32, "test")
	if sum.WarmupEnd != iterCompute || sum.MeanIterTime != iterCompute {
		t.Errorf("warm-up end %d, mean iteration %d; want %d and %d", sum.WarmupEnd, sum.MeanIterTime, iterCompute, iterCompute)
	}
	for i, it := range sum.IterTimes {
		if it != iterCompute {
			t.Errorf("measured iteration %d took %d ns, want %d", i, it, iterCompute)
		}
	}
	if want := 3 * 32 / sim.Time(3*iterCompute).Seconds(); sum.Throughput != want {
		t.Errorf("throughput %g samples/s, want %g", sum.Throughput, want)
	}
}

// TestLateLayerStallsExactly releases layer 0 of one iteration X late.
// Layer 0's gradient is the last one produced and the first one the next
// forward pass needs, so the next iteration waits exactly X — charged
// only when that iteration is measured.
func TestLateLayerStallsExactly(t *testing.T) {
	const x = 1234
	for _, c := range []struct {
		late   int32 // iteration whose layer-0 parameters come back late
		stall0 sim.Time
	}{
		{late: 0, stall0: 0}, // waited in iteration 1: warm-up
		{late: 1, stall0: x}, // waited in iteration 2: measured
		{late: 2, stall0: x}, // waited in iteration 3: measured
		{late: 3, stall0: 0}, // nothing runs after the last iteration
	} {
		t.Run(fmt.Sprint(c.late), func(t *testing.T) {
			w := run(t, testSpec(2, 4), func(chunk int, iter int32) sim.Time {
				if chunk == 0 && iter == c.late {
					return x
				}
				return 0
			})
			if got := w.Stalls(); got[0] != c.stall0 || got[1] != 0 || got[2] != 0 {
				t.Errorf("stalls %v, want [%d 0 0]", got, c.stall0)
			}
			for i, done := range w.bwdDone {
				want := sim.Time(iterCompute * (i + 1))
				if int32(i) > c.late {
					want += x
				}
				if done != want {
					t.Errorf("iteration %d finished at %d ns, want %d", i, done, want)
				}
			}
		})
	}
}

// TestMissingChunkHoldsLayer returns one of layer 1's two chunks on time
// and the other 100 ns late. Layer 1's gradient is ready 40 ns before the
// iteration ends and needed 10 ns after the next one starts, so the late
// chunk costs exactly 100-50 ns of stall; releasing the layer on the first
// chunk would cost none.
func TestMissingChunkHoldsLayer(t *testing.T) {
	eng := &sim.Engine{}
	spec := testSpec(1, 3)
	w := loopback(eng, spec, ones(spec.Total), func(chunk int, iter int32) sim.Time {
		if chunk == 2 {
			return 100
		}
		return 0
	})
	w.Start()
	// Iteration 1 reaches layer 1 at 220 ns; the late chunk lands at 270.
	var l int
	var iter int32
	var waiting bool
	eng.At(iterCompute+40, func() { l, iter, waiting = w.Waiting() })
	eng.Run()
	if !waiting || l != 1 || iter != 1 {
		t.Errorf("with one chunk of layer 1 in: Waiting() = (%d, %d, %t), want (1, 1, true)", l, iter, waiting)
	}
	if got := w.Stalls(); got[0] != 0 || got[1] != 2*50 || got[2] != 0 {
		t.Errorf("stalls %v, want [0 100 0] (50 ns in each of 2 measured iterations)", got)
	}
}

func TestJitterScalesSteps(t *testing.T) {
	eng := &sim.Engine{}
	spec := testSpec(1, 3)
	w := loopback(eng, spec, []float64{1, 2, 1}, noDelay)
	w.Start()
	eng.Run()
	want := []sim.Time{iterCompute, 3 * iterCompute, 4 * iterCompute}
	for i := range want {
		if w.bwdDone[i] != want[i] {
			t.Errorf("iteration %d finished at %d ns, want %d", i, w.bwdDone[i], want[i])
		}
	}
}

func TestJitterTable(t *testing.T) {
	flat := Jitter(7, 0x51ce, 0, 3, 4)
	for w := range flat {
		for i, v := range flat[w] {
			if v != 1 {
				t.Fatalf("sigma 0: jitter[%d][%d] = %g, want 1", w, i, v)
			}
		}
	}
	a, b := Jitter(7, 0x51ce, 0.2, 3, 4), Jitter(7, 0x51ce, 0.2, 3, 4)
	c := Jitter(7, 0x9e3779b97f4a7c15, 0.2, 3, 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed and salt drew different tables")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different salts drew the same table")
	}
	if a[0][0] == a[1][0] {
		t.Error("workers 0 and 1 drew the same multiplier")
	}
}

func TestSummarizeRefusesWedgedRun(t *testing.T) {
	eng := &sim.Engine{}
	spec := testSpec(1, 3)
	done := loopback(eng, spec, ones(spec.Total), noDelay)
	// Never gets its parameters back: blocks in iteration 1's forward pass.
	stuck := New(eng, spec, ones(spec.Total), Hooks{})
	done.Start()
	stuck.Start()
	eng.Run()
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "protocol wedged") || !strings.Contains(msg, "worker 1") {
			t.Fatalf("panic %v, want a protocol-wedged panic naming worker 1", r)
		}
	}()
	Summarize([]*Worker{done, stuck}, 32, "test")
}

// TestPoolSerializesKeys runs two threads over three items, two of them
// for the same chunk: the distinct chunks process in parallel, the shared
// one waits for its key.
func TestPoolSerializesKeys(t *testing.T) {
	eng := &sim.Engine{}
	q := sched.NewQueue(sched.MustByName("fifo"), func(it Item) sched.Item { return sched.Item{Bytes: 100} })
	finished := map[int32]sim.Time{}
	p := NewPool(2, 5, 1, []int64{100, 100}, q, eng, func(it Item) { finished[it.Src] = eng.Now() })
	p.Add(Item{Chunk: 0, Src: 0})
	p.Add(Item{Chunk: 0, Src: 1})
	p.Add(Item{Chunk: 1, Src: 2})
	eng.Run()
	if want := map[int32]sim.Time{0: 105, 1: 210, 2: 105}; fmt.Sprint(finished) != fmt.Sprint(want) {
		t.Errorf("finish times %v, want %v", finished, want)
	}
}
