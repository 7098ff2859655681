package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"p3/internal/core"
	"p3/internal/pstcp"
	"p3/internal/strategy"
	"p3/internal/transport"
	"p3/internal/zoo"
)

const (
	tcpWorkers = 2
	// tcpLR makes the server's update scale lr/workers exactly 1/8. With
	// gradients and initial values on a 1/16 grid, every update is exact
	// in float32 whatever the evaluation order, so the workers can check
	// each broadcast for equality against their own SGD reference.
	tcpLR        = 0.25
	tcpSetupReps = 5
	roundTimeout = 60 * time.Second
	// setupIter tags the pulls that confirm the initial values.
	setupIter = -1
)

// tcpCluster is one parameter server and tcpWorkers workers on loopback,
// all in this process, exchanging every slice of the model each round.
type tcpCluster struct {
	plan    *core.Plan
	base    []int // first element of each chunk in the flat parameter vector
	layer0  []bool
	payload int64 // bytes of one full model
	batch   int   // samples per worker per round

	srv     *pstcp.Server
	workers []*pstcp.Worker

	// ref holds the parameters after the last completed round (the initial
	// values before the first); grads holds each worker's gradient for the
	// current round. Both are rewritten only between rounds, and round is
	// stored after they are, so a receive goroutine that loads round sees
	// them complete.
	ref   []float32
	grads [][]float32
	tbl   []float32
	seed  uint64
	round atomic.Int32

	t0         time.Time
	pushAt     [][]atomic.Int64 // [worker][key]: ns since t0 of the Push call
	keyDone    []atomic.Int32   // receptions of each key over all rounds
	left       []atomic.Int32   // per worker: keys still due this round
	layer0Left []int            // per worker, owned by its receive goroutine
	headAt     []time.Duration  // per worker: when its layer-0 slices completed
	lat        [][]float64      // per worker: key latencies this round, ms
	bad        atomic.Int64     // broadcasts that failed the SGD check
	done       chan int         // a worker received its last key of the round
	pullsLeft  atomic.Int32
	pullsDone  chan struct{}
	tr         *tracer
	roundSpan  atomic.Int64 // the current round's span id, 0 when untraced
}

// newTCPCluster does the set-up a user pays before the first round: model,
// profile and plan, server start, dials, and initial values confirmed by
// pulling every key back.
func newTCPCluster(seed int64, tr *tracer) (*tcpCluster, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	id := tr.begin("zoo.ByName", root)
	m := zoo.ByName(benchModel)
	tr.end(id)
	id = tr.begin("strategy.ComputeProfile", root)
	prof := strategy.ComputeProfile(m, 0)
	tr.end(id)
	id = tr.begin("core.PartitionSlices", root)
	plan := core.PartitionSlices(m, 0, 1)
	tr.end(id)

	c := &tcpCluster{
		plan: plan, batch: m.BatchSize, seed: uint64(seed), tr: tr, t0: time.Now(),
		done: make(chan int, tcpWorkers), pullsDone: make(chan struct{}, 1),
	}
	n := 0
	for _, ch := range plan.Chunks {
		c.base = append(c.base, n)
		c.layer0 = append(c.layer0, ch.Layer == 0)
		n += int(ch.Params)
		c.payload += ch.Bytes()
	}
	rng := rand.New(rand.NewPCG(c.seed, 0x5eed))
	c.tbl = make([]float32, 4096)
	for i := range c.tbl {
		c.tbl[i] = float32(rng.IntN(17)-8) / 16
	}
	c.ref = make([]float32, n)
	c.fill(c.ref, 0, -1)
	c.keyDone = make([]atomic.Int32, len(plan.Chunks))
	c.left = make([]atomic.Int32, tcpWorkers)
	c.layer0Left = make([]int, tcpWorkers)
	c.headAt = make([]time.Duration, tcpWorkers)
	c.lat = make([][]float64, tcpWorkers)
	c.pushAt = make([][]atomic.Int64, tcpWorkers)
	c.grads = make([][]float32, tcpWorkers)
	for w := range c.grads {
		c.grads[w] = make([]float32, n)
		c.pushAt[w] = make([]atomic.Int64, len(plan.Chunks))
	}

	id = tr.begin("pstcp.NewServer", root)
	c.srv = pstcp.NewServer(pstcp.ServerConfig{
		ID: 0, Workers: tcpWorkers, Sched: "p3", Profile: prof, Updater: pstcp.SGDUpdater(tcpLR),
	})
	addr, err := c.srv.Start("127.0.0.1:0")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for w := 0; w < tcpWorkers; w++ {
		id = tr.begin("pstcp.DialWorkerCfg", root)
		wk, err := pstcp.DialWorkerCfg(pstcp.WorkerConfig{
			ID: w, Servers: []string{addr}, Sched: "p3", Profile: prof,
			Handler: func(f *transport.Frame) { c.onFrame(w, f) },
		})
		tr.end(id)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, wk)
	}

	id = tr.begin("pstcp.Worker.Init", root)
	c.pullsLeft.Store(int32(len(plan.Chunks)))
	for k, ch := range plan.Chunks {
		vals := append([]float32(nil), c.ref[c.base[k]:c.base[k]+int(ch.Params)]...)
		c.workers[0].Init(0, uint64(k), vals)
	}
	for k, ch := range plan.Chunks {
		c.workers[0].Pull(0, uint64(k), setupIter, int32(ch.Priority))
	}
	select {
	case <-c.pullsDone:
	case <-time.After(roundTimeout):
		c.close()
		return nil, fmt.Errorf("pstcp: %d of %d initial values never came back", c.pullsLeft.Load(), len(plan.Chunks))
	}
	tr.end(id)
	if b := c.bad.Load(); b > 0 {
		c.close()
		return nil, fmt.Errorf("pstcp: %d initial values came back altered", b)
	}
	return c, nil
}

// fill writes the seeded values of worker w in round r (r = -1: the
// initial parameters) into dst: a rotation of the seeded 1/16-grid table.
func (c *tcpCluster) fill(dst []float32, w, r int) {
	h := c.seed ^ uint64(w+1)*0x9e3779b97f4a7c15 ^ uint64(r+2)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	off := int(h % uint64(len(c.tbl)))
	mask := len(c.tbl) - 1
	for i := range dst {
		dst[i] = c.tbl[(i+off)&mask]
	}
}

func (c *tcpCluster) close() {
	for _, w := range c.workers {
		w.Close()
	}
	c.srv.Close()
}

// onFrame runs on worker w's receive goroutine for every server frame.
func (c *tcpCluster) onFrame(w int, f *transport.Frame) {
	if f.Type != transport.TypeData {
		return
	}
	arrived := time.Since(c.t0)
	k := int(f.Key)
	if k < 0 || k >= len(c.plan.Chunks) {
		c.bad.Add(1)
		return
	}
	lo, hi := c.base[k], c.base[k]+int(c.plan.Chunks[k].Params)
	if f.Iter == setupIter {
		if !equal(f.Values, c.ref[lo:hi]) {
			c.bad.Add(1)
		}
		if c.pullsLeft.Add(-1) == 0 {
			c.pullsDone <- struct{}{}
		}
		return
	}
	r := c.round.Load()
	if f.Iter != r || !c.sgdExact(f.Values, lo, hi) {
		c.bad.Add(1)
	}
	pushed := time.Duration(c.pushAt[w][k].Load())
	c.lat[w] = append(c.lat[w], float64(arrived-pushed)/1e6)
	if sp := int(c.roundSpan.Load()); sp != 0 {
		c.tr.add("key_update", sp, c.t0.Add(pushed), c.t0.Add(arrived))
	}
	if c.layer0[k] {
		if c.layer0Left[w]--; c.layer0Left[w] == 0 {
			c.headAt[w] = arrived
		}
	}
	if c.keyDone[k].Add(1)%tcpWorkers == 0 {
		// Both workers have checked key k against ref: advance it.
		c.applySGD(lo, hi)
	}
	if c.left[w].Add(-1) == 0 {
		c.done <- w
	}
}

// sgdExact reports whether got is ref - lr/W * sum(grads) on [lo, hi).
func (c *tcpCluster) sgdExact(got []float32, lo, hi int) bool {
	if len(got) != hi-lo {
		return false
	}
	const scale = float32(tcpLR / tcpWorkers)
	g0, g1, ref := c.grads[0][lo:hi], c.grads[1][lo:hi], c.ref[lo:hi]
	for i, v := range got {
		if v != ref[i]-scale*(g0[i]+g1[i]) {
			return false
		}
	}
	return true
}

func (c *tcpCluster) applySGD(lo, hi int) {
	const scale = float32(tcpLR / tcpWorkers)
	g0, g1, ref := c.grads[0][lo:hi], c.grads[1][lo:hi], c.ref[lo:hi]
	for i := range ref {
		ref[i] -= scale * (g0[i] + g1[i])
	}
}

func equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundSample is one synchronous round as the benchmark saw it.
type roundSample struct {
	cellSample
	lat      []float64 // key latencies, ms
	pushUs   []float64 // Push call durations, us
	headMs   []float64 // per worker: last Push to all layer-0 slices
	queueMax int
	missing  int // updates that never arrived (timeout)
}

// prepare writes every worker's gradients for round r and resets the
// round's bookkeeping: the workers' compute, outside the timed round.
func (c *tcpCluster) prepare(r int) {
	var wg sync.WaitGroup
	for w := range c.grads {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.fill(c.grads[w], w, r)
		}(w)
	}
	wg.Wait()
	// Start every round from a collected heap, so one round's garbage does
	// not pace the next round's collections.
	runtime.GC()
	for w := range c.left {
		c.left[w].Store(int32(len(c.plan.Chunks)))
		c.layer0Left[w] = len(c.plan.LayerChunks(0))
		c.lat[w] = c.lat[w][:0]
	}
}

// exchange is one timed synchronous round: every worker pushes every
// slice in backward-pass order (the last layer first, layer 0 last, as
// backpropagation produces them), then waits until it holds every updated
// slice.
func (c *tcpCluster) exchange(r int, traced bool) roundSample {
	var wg sync.WaitGroup
	span := 0 // the round's span id; 0 leaves the round untraced
	if traced {
		span = c.tr.begin("round", 0)
	}
	c.roundSpan.Store(int64(span))
	c.round.Store(int32(r))

	before := takeCounters()
	s := roundSample{headMs: make([]float64, tcpWorkers)}
	lastPush := make([]time.Duration, tcpWorkers)
	pushUs := make([][]float64, tcpWorkers)
	queue := make([]int, tcpWorkers)
	for w, wk := range c.workers {
		wg.Add(1)
		go func(w int, wk *pstcp.Worker) {
			defer wg.Done()
			g := c.grads[w]
			for k := len(c.plan.Chunks) - 1; k >= 0; k-- {
				ch := c.plan.Chunks[k]
				at := time.Now()
				c.pushAt[w][k].Store(int64(at.Sub(c.t0)))
				wk.Push(ch.Server, uint64(k), int32(r), int32(ch.Priority), g[c.base[k]:c.base[k]+int(ch.Params)])
				end := time.Now()
				pushUs[w] = append(pushUs[w], float64(end.Sub(at).Nanoseconds())/1e3)
				if traced {
					c.tr.add("pstcp.Worker.Push", span, at, end)
				}
			}
			lastPush[w] = time.Since(c.t0)
			queue[w] = wk.QueuedSends()
		}(w, wk)
	}
	wg.Wait()
	timeout := time.After(roundTimeout)
	for got := 0; got < tcpWorkers; {
		select {
		case <-c.done:
			got++
		case <-timeout:
			for w := range c.left {
				s.missing += int(c.left[w].Load())
			}
			got = tcpWorkers
		}
	}
	after := takeCounters()
	if traced {
		c.tr.end(span)
	}
	s.cellSample = after.sub(before)
	if s.missing > 0 {
		return s
	}
	for w := range c.workers {
		s.lat = append(s.lat, c.lat[w]...)
		s.pushUs = append(s.pushUs, pushUs[w]...)
		s.headMs[w] = float64(c.headAt[w]-lastPush[w]) / 1e6
		s.queueMax = max(s.queueMax, queue[w])
	}
	return s
}

func runTCPWorkload(o options) (*report, error) {
	var setupTimes []float64
	var c *tcpCluster
	before := o.probe.ns()
	for i := 0; i < tcpSetupReps; i++ {
		if c != nil {
			c.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		c, err = newTCPCluster(o.seed, o.tracer)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer c.close()
	probes := []float64{before, o.probe.ns()}
	setupScale := scale(probes[0], probes[1])

	rep := &report{}
	var plain, traced []roundSample
	attr := cpuAttribution{}
	pushes0, updates0 := c.srv.Stats()
	start := time.Now()
	rounds := 0
	for r := 0; ; r++ {
		if time.Since(start) >= o.seconds && len(plain) > 0 && (!o.traced || len(traced) > 0) {
			break
		}
		// Round 0 is a warm-up (heap growth, socket buffers): checked
		// but not timed.
		warm := r == 0
		tr := o.traced && r%2 == 0 && !warm
		c.prepare(r)
		var prof bytes.Buffer
		if tr {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		s := c.exchange(r, tr)
		if tr {
			pprof.StopCPUProfile()
		}
		probes = append(probes, o.probe.ns())
		s.scale = scale(probes[len(probes)-2], probes[len(probes)-1])
		if tr {
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			attr.add(samples)
			rep.profile = prof.Bytes()
			traced = append(traced, s)
		} else if !warm {
			plain = append(plain, s)
		}
		rounds++
		rep.attempted += len(c.plan.Chunks) * tcpWorkers
		if s.missing > 0 {
			rep.failed += s.missing
			rep.errs = append(rep.errs, fmt.Sprintf("round %d: %d updates missing after %v", r, s.missing, roundTimeout))
			break
		}
	}
	bad := int(c.bad.Load())
	rep.failed += bad
	if bad > 0 {
		rep.errs = append(rep.errs, fmt.Sprintf("%d broadcasts were not exact SGD on the seeded gradients", bad))
	}
	pushes, updates := c.srv.Stats()
	pushes, updates = pushes-pushes0, updates-updates0
	keys := int64(len(c.plan.Chunks))
	if want := keys * tcpWorkers * int64(rounds); pushes != want {
		rep.failed += int(abs64(want - pushes))
		rep.errs = append(rep.errs, fmt.Sprintf("server counted %d pushes, want %d", pushes, want))
	}
	if want := keys * int64(rounds); updates != want {
		rep.errs = append(rep.errs, fmt.Sprintf("server applied %d updates, want %d", updates, want))
		rep.failed += int(abs64(want - updates))
	}
	rep.failed = min(rep.failed, rep.attempted)

	roundPayload := float64(2 * tcpWorkers * c.payload) // pushes plus broadcasts
	var lat, pushUs, headMs []float64
	var alloc float64
	queueMax := 0
	for _, s := range plain {
		lat = append(lat, s.lat...)
		pushUs = append(pushUs, s.pushUs...)
		headMs = append(headMs, s.headMs...)
		alloc += float64(s.alloc)
		queueMax = max(queueMax, s.queueMax)
	}
	roundWall := func(s roundSample) float64 { return scaledWall(s.cellSample) }
	wall := median(each(plain, roundWall))
	rep.e2e = map[string]float64{
		"wall_s":        wall,
		"samples_per_s": float64(tcpWorkers*c.batch) / wall,
		"peak_rss_mb":   peakRSSMB(),
		"setup_s":       median(setupTimes) * setupScale,
	}
	ls := summarize(lat)
	var reconnects int64
	for _, w := range c.workers {
		reconnects += w.Reconnects()
	}
	layer := map[string]float64{
		"pstcp.goodput_mb_s":                   roundPayload / wall / 1e6,
		"pstcp.key_latency_ms_p50":             ls.p50,
		"pstcp.key_latency_ms_tail":            ls.tail,
		"pstcp.key_latency_tail_pct":           ls.tailPct,
		"pstcp.key_latency_samples":            float64(ls.n),
		"pstcp.push_call_us_p50":               median(pushUs),
		"pstcp.head_layer_ms_p50":              median(headMs),
		"pstcp.send_queue_max":                 float64(queueMax),
		"pstcp.pushes":                         float64(pushes),
		"pstcp.updates":                        float64(updates),
		"pstcp.reconnects":                     float64(reconnects),
		"runtime.alloc_bytes_per_payload_byte": alloc / (roundPayload * float64(len(plain))),
		"runtime.gc_cycles":                    median(each(plain, func(s roundSample) float64 { return float64(s.gcs) })),
		"runtime.gc_pause_ms": median(each(plain, func(s roundSample) float64 {
			return float64(s.pauseNs) / 1e6
		})),
		"trace.overhead_share": median(each(traced, roundWall))/wall - 1,
		"host.probe_ns":        median(probes),
		"host.wall_raw_s":      median(each(plain, func(s roundSample) float64 { return s.wall.Seconds() })),
	}
	addShares(layer, attr)
	zeroMissing(layer) // the simulator layers never run here
	rep.layer = layer
	return rep, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
