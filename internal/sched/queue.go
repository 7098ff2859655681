package sched

import (
	"sort"

	"p3/internal/pq"
)

// Queue is a deterministic, non-thread-safe queue of T ordered by a
// Discipline. It is the building block behind every scheduling site: the
// discrete-event simulator uses it directly (single-threaded on the virtual
// clock), and transport.SendQueue wraps it with a mutex/condvar for the real
// concurrent transport.
//
// Internally the queue is per-flow: elements are bucketed into subqueues
// keyed by their Item.Dest, each subqueue ordered by the discipline, and the
// dispatcher (Pop/PopReady) selects among the flow heads — discipline order
// first, global insertion order on ties. For plain disciplines this is
// indistinguishable from one priority heap (the most urgent flow head IS the
// global minimum), so fifo, p3, smallest and tictac dequeue bit-identically
// to a single queue. The structure pays off under an Admitter: when a flow's
// head is refused by its credit window, PopReady skips to the most urgent
// admissible head of another flow instead of blocking every destination
// behind one starved one (flow-aware head skipping).
//
// The flow heads live in an indexed min-heap (pq.Indexed) ordered by the
// same strict total order the dispatcher uses, so selecting, re-ranking or
// evicting a flow costs O(log F) in the flow count F — never a linear scan —
// and the admission walk visits heads in urgency order by popping the heap,
// restoring the skipped prefix afterwards. A flow whose subqueue drains is
// evicted immediately and its storage recycled through a free list, so a
// long-running queue (the pstcp server's send queues live for the process
// lifetime) holds memory proportional to its current, not historical, flow
// set, and steady-state operation allocates nothing. See doc.go for the
// per-operation complexity contract.
//
// The view function projects an element into the scheduler-visible Item;
// it must be pure (the queue may call it more than once per element).
type Queue[T any] struct {
	d    Discipline
	rank Ranker   // non-nil iff d ranks at enqueue
	adm  Admitter // non-nil iff d gates with a credit window
	view func(T) Item

	flows map[int32]*flow[T] // non-empty flows only, keyed by Item.Dest
	heads *pq.Indexed[*flow[T]]
	walk  []*flow[T] // reusable admission-walk buffer (skipped prefix)
	free  []*flow[T] // drained flow shells kept for reuse
	seq   uint64     // global insertion counter (cross-flow tie-break)
	n     int
}

// flow is one destination's subqueue plus its position in the head heap
// (maintained by the heap's move callback; -1 while evicted).
type flow[T any] struct {
	key int32
	idx int
	q   *pq.Queue[entry[T]]
}

type entry[T any] struct {
	v   T
	it  Item
	seq uint64
}

// NewQueue builds a queue ordered by d. d must be a fresh instance not
// shared with any other queue (stateful disciplines carry per-queue state).
//
// NewQueue must not inline: its flow-head comparator closure would then be
// compiled in the caller's package, where pq's Peek no longer inlines into
// it. Measured on a 2-CPU host, that made the 64-machine PS cell
// (BenchmarkScale64Machines) 15-20% slower.
//
//go:noinline
func NewQueue[T any](d Discipline, view func(T) Item) *Queue[T] {
	q := &Queue[T]{d: d, view: view, flows: make(map[int32]*flow[T])}
	q.rank, _ = d.(Ranker)
	q.adm, _ = d.(Admitter)
	q.heads = pq.NewIndexed(
		func(a, b *flow[T]) bool {
			ea, _ := a.q.Peek()
			eb, _ := b.q.Peek()
			return q.before(ea, eb)
		},
		func(f *flow[T], i int) { f.idx = i },
	)
	return q
}

// Gated reports whether the discipline gates dispatch with a credit window
// (implements Admitter, possibly under wrappers). Gated queues need
// completion feedback (Done) from the consumer; execution modes that cannot
// deliver it synchronously (the sharded engine's cross-shard deliveries)
// use this to reject the combination up front.
func (q *Queue[T]) Gated() bool { return q.adm != nil }

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push enqueues v into its flow's subqueue in O(log F) (plus O(log n_f) in
// the flow's own depth), allocating only when a slab must grow.
//
//p3:noescape
func (q *Queue[T]) Push(v T) {
	it := q.view(v)
	if q.rank != nil {
		it = q.rank.Rank(it)
	}
	q.seq++
	f := q.flows[it.Dest]
	if f == nil {
		if k := len(q.free); k > 0 {
			f = q.free[k-1]
			q.free[k-1] = nil
			q.free = q.free[:k-1]
			f.key = it.Dest
		} else {
			//p3:alloc-ok first flow per destination; recycled via q.free thereafter
			f = &flow[T]{key: it.Dest}
			//p3:alloc-ok per-flow heap and closure, amortized over the flow's lifetime
			f.q = pq.New(func(a, b entry[T]) bool { return q.d.Less(a.it, b.it) })
		}
		q.flows[it.Dest] = f
		f.q.Push(entry[T]{v: v, it: it, seq: q.seq})
		q.heads.Push(f)
	} else {
		f.q.Push(entry[T]{v: v, it: it, seq: q.seq})
		q.heads.Fix(f.idx) // the flow's head may have changed
	}
	q.n++
}

// before reports whether entry a precedes b in the global dispatch order:
// discipline order first, global insertion order on ties. Sequence numbers
// are unique, so this is a strict total order and both the head heap and the
// dispatcher are deterministic regardless of internal layout.
//
//p3:noescape
func (q *Queue[T]) before(a, b entry[T]) bool {
	if q.d.Less(a.it, b.it) {
		return true
	}
	if q.d.Less(b.it, a.it) {
		return false
	}
	return a.seq < b.seq
}

// take pops f's head, evicts f if that drained it, and runs the dispatch
// bookkeeping. f must currently be in the head heap.
//
//p3:noescape
func (q *Queue[T]) take(f *flow[T]) T {
	e := f.q.Pop()
	q.n--
	if f.q.Len() == 0 {
		// Evict immediately: an empty flow must not linger in the map (that
		// leak grew without bound on long-running transport queues) nor in
		// the heap (its comparator has no head to read). The shell is
		// recycled so a flow that reappears costs no allocation.
		q.heads.Remove(f.idx)
		delete(q.flows, f.key)
		q.free = append(q.free, f)
	} else {
		q.heads.Fix(f.idx)
	}
	if q.adm != nil {
		q.adm.OnStart(e.it)
	}
	return e.v
}

// restoreWalk pushes the admission walk's popped prefix back into the head
// heap. Heap layout after restoration may differ, but dispatch order cannot:
// the order is the comparator's strict total order, not the layout.
//
//p3:noescape
func (q *Queue[T]) restoreWalk() {
	for i, f := range q.walk {
		q.heads.Push(f)
		q.walk[i] = nil
	}
	q.walk = q.walk[:0]
}

// Pop removes and returns the most urgent element, bypassing the Admit
// check of any credit gate (used when draining a closed queue). It still
// charges the element in flight (OnStart), so the caller's usual Done call
// stays balanced whether the element came from Pop or PopReady. The second
// result is false when the queue is empty.
//
//p3:noescape
func (q *Queue[T]) Pop() (T, bool) {
	f, ok := q.heads.Peek()
	if !ok {
		var zero T
		return zero, false
	}
	return q.take(f), true
}

// PopReady removes and returns the most urgent admissible element: flow
// heads are consulted in urgency order and the first one the discipline
// admits dispatches, so a credit-blocked flow never delays an admissible
// item bound for another destination. Disciplines without an Admitter
// always admit their global head, making PopReady identical to Pop. The
// second result is false when the queue is empty or every flow head is
// refused by the credit window. An admitted element is charged in-flight
// (OnStart); release it with Done once it completes.
//
//p3:noescape
func (q *Queue[T]) PopReady() (T, bool) {
	if q.adm == nil {
		return q.Pop()
	}
	var chosen *flow[T]
	for q.heads.Len() > 0 {
		f := q.heads.Pop()
		q.walk = append(q.walk, f)
		e, _ := f.q.Peek()
		if q.adm.Admit(e.it) {
			chosen = f
			break
		}
	}
	q.restoreWalk()
	if chosen == nil {
		var zero T
		return zero, false
	}
	return q.take(chosen), true
}

// Done releases v's in-flight charge (a no-op for disciplines without a
// credit window). Call it exactly once per successful PopReady.
//
//p3:noescape
func (q *Queue[T]) Done(v T) {
	if q.adm != nil {
		q.adm.OnDone(q.view(v))
	}
}

// Cancel releases v's in-flight charge without signalling a completion:
// use it when the caller backs out of work it popped (e.g. re-queueing an
// item deferred on a serialization constraint), so adaptive disciplines
// do not tune their windows on bytes that were never actually processed.
// The refund is routed by v's own Item view — v carries its destination,
// so a flow skipped at dispatch can never absorb another flow's refund.
// Falls back to Done semantics for disciplines without a cancel path.
//
//p3:noescape
func (q *Queue[T]) Cancel(v T) {
	if q.adm == nil {
		return
	}
	if c, ok := q.adm.(Canceler); ok {
		c.OnCancel(q.view(v))
		return
	}
	q.adm.OnDone(q.view(v))
}

// SetProfile applies a (re)calibrated timing profile to the queue's
// discipline (ApplyProfile) and, when elements are queued, rebuilds the
// queue under the new order: a comparator-ranked discipline (tictac) reads
// the profile inside Less, so swapping it under a populated heap would
// break the heap invariant and dispatch in neither the old nor the new
// order. Queued elements are re-enqueued in their original insertion order
// — Ranker disciplines re-rank them, and in-flight credit charges are
// untouched (they belong to popped elements). O(n log n); intended for the
// rare recalibration point, not a hot path. A no-op profile-wise for
// profile-blind disciplines, but the rebuild still runs so a Ranker
// wrapper over a profiled base (damped:tictac) re-ranks consistently.
func (q *Queue[T]) SetProfile(p *Profile) {
	ApplyProfile(q.d, p)
	if q.n == 0 {
		return
	}
	ents := make([]entry[T], 0, q.n)
	for _, f := range q.flows {
		for f.q.Len() > 0 {
			ents = append(ents, f.q.Pop())
		}
		q.free = append(q.free, f) // drained shell, reusable
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	q.flows = make(map[int32]*flow[T], len(q.flows))
	q.heads = pq.NewIndexed(
		func(a, b *flow[T]) bool {
			ea, _ := a.q.Peek()
			eb, _ := b.q.Peek()
			return q.before(ea, eb)
		},
		func(f *flow[T], i int) { f.idx = i },
	)
	q.n = 0
	for _, e := range ents {
		q.Push(e.v)
	}
}

// Blocked reports whether elements are queued but every flow head is
// currently refused by the credit window — i.e. a Done call is required
// before progress. It consults the discipline's Admit, which for adaptive
// disciplines records each refusal as a congestion signal — treat Blocked
// as part of the dispatch loop, not a free-standing query to poll.
//
//p3:noescape
func (q *Queue[T]) Blocked() bool {
	if q.adm == nil || q.n == 0 {
		return false
	}
	admissible := false
	for q.heads.Len() > 0 {
		f := q.heads.Pop()
		q.walk = append(q.walk, f)
		e, _ := f.q.Peek()
		if q.adm.Admit(e.it) {
			admissible = true
			break
		}
	}
	q.restoreWalk()
	return !admissible
}
