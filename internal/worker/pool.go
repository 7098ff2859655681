package worker

import (
	"p3/internal/sched"
	"p3/internal/sim"
)

// Item is one unit of endpoint processing: a chunk of iteration Iter at
// wire priority Priority. Src is the caller's tag, carried through
// untouched: the cluster's originating worker, the ring's collective
// round.
type Item struct {
	Chunk    int32
	Iter     int32
	Src      int32
	Priority int32
}

// Pool serializes per-byte endpoint processing — a server summing pushes,
// a worker installing parameters, a ring rank reducing a segment. It
// models MXNet's engine semantics: up to threads items process
// concurrently, but items for the same chunk (key) always serialize
// because they share an accumulator. The order is the caller's
// sched.Queue, so the strategy's discipline decides: fifo for baseline
// strategies, p3 priority ordering for the producer/consumer loops of the
// paper's Section 4.2.
type Pool struct {
	threads  int
	inFlight int
	queue    *sched.Queue[Item]
	busy     []bool           // per chunk: an item of this key is processing
	waiting  map[int32][]Item // per chunk: items deferred behind a busy key
	overhead sim.Time
	rate     float64  // bytes per nanosecond
	bytes    []int64  // per chunk: bytes one item processes
	proc     sim.Proc // the owning machine's timeline
	done     func(Item)
}

// NewPool builds a pool ordered by queue, which must wrap a fresh
// discipline instance (pools never share scheduler state). An item of
// chunk c costs overhead plus bytes[c]/rate on proc, the owning machine's
// scheduling handle; done runs when it finishes.
func NewPool(threads int, overhead sim.Time, rate float64, bytes []int64, queue *sched.Queue[Item], proc sim.Proc, done func(Item)) *Pool {
	return &Pool{
		threads:  threads,
		queue:    queue,
		busy:     make([]bool, len(bytes)),
		waiting:  make(map[int32][]Item),
		overhead: overhead,
		rate:     rate,
		bytes:    bytes,
		proc:     proc,
		done:     done,
	}
}

// Add enqueues an item and starts as many queued items as the thread,
// per-key and credit limits allow.
func (p *Pool) Add(it Item) {
	p.queue.Push(it)
	p.pump()
}

func (p *Pool) pump() {
	for p.inFlight < p.threads {
		it, ok := p.queue.PopReady()
		if !ok {
			return
		}
		if p.busy[it.Chunk] {
			// Deferred on the per-key serialization, not processing yet:
			// refund any credit until the chunk frees up and re-queues it.
			// Cancel, not Done — an adaptive window must not read this
			// refund as a completed transfer.
			p.queue.Cancel(it)
			p.waiting[it.Chunk] = append(p.waiting[it.Chunk], it)
			continue
		}
		p.start(it)
	}
}

func (p *Pool) start(it Item) {
	p.busy[it.Chunk] = true
	p.inFlight++
	cost := p.overhead + sim.Time(float64(p.bytes[it.Chunk])/p.rate)
	p.proc.After(cost, func() {
		p.inFlight--
		p.busy[it.Chunk] = false
		p.queue.Done(it)
		if len(p.waiting) > 0 {
			if w := p.waiting[it.Chunk]; len(w) > 0 {
				p.queue.Push(w[0])
				if len(w) == 1 {
					delete(p.waiting, it.Chunk)
				} else {
					p.waiting[it.Chunk] = w[1:]
				}
			}
		}
		p.done(it)
		p.pump()
	})
}
