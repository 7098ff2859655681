package sched

import (
	"sort"

	"p3/internal/pq"
)

// refQueue retains the pre-PR-4 linear-scan dispatcher verbatim as the
// executable specification of dispatch order: flows are selected with an
// O(F) scan over every subqueue head (best) and the admission walk sorts
// all heads on every pop (heads). The indexed-heap Queue must be
// bit-identical to this reference on every primitive — the property test in
// queue_property_test.go drives both through random interleavings. The
// reference also retains the old no-eviction behaviour (drained flows stay
// in the map forever), which dispatch order must not observe.
type refQueue[T any] struct {
	d    Discipline
	rank Ranker
	adm  Admitter
	view func(T) Item

	flows   map[int32]*refFlow[T]
	order   []*refFlow[T]
	scratch []*refFlow[T]
	seq     uint64
	n       int
}

type refFlow[T any] struct {
	key int32
	q   *pq.Queue[entry[T]]
}

func newRefQueue[T any](d Discipline, view func(T) Item) *refQueue[T] {
	q := &refQueue[T]{d: d, view: view, flows: make(map[int32]*refFlow[T])}
	q.rank, _ = d.(Ranker)
	q.adm, _ = d.(Admitter)
	return q
}

func (q *refQueue[T]) Len() int { return q.n }

func (q *refQueue[T]) Push(v T) {
	it := q.view(v)
	if q.rank != nil {
		it = q.rank.Rank(it)
	}
	q.seq++
	f := q.flows[it.Dest]
	if f == nil {
		f = &refFlow[T]{key: it.Dest}
		f.q = pq.New(func(a, b entry[T]) bool { return q.d.Less(a.it, b.it) })
		q.flows[it.Dest] = f
		q.order = append(q.order, f)
	}
	f.q.Push(entry[T]{v: v, it: it, seq: q.seq})
	q.n++
}

func (q *refQueue[T]) before(a, b entry[T]) bool {
	if q.d.Less(a.it, b.it) {
		return true
	}
	if q.d.Less(b.it, a.it) {
		return false
	}
	return a.seq < b.seq
}

// best: the O(F) linear scan over all flow heads.
func (q *refQueue[T]) best() *refFlow[T] {
	var bf *refFlow[T]
	var bh entry[T]
	for _, f := range q.order {
		h, ok := f.q.Peek()
		if !ok {
			continue
		}
		if bf == nil || q.before(h, bh) {
			bf, bh = f, h
		}
	}
	return bf
}

// heads: the O(F log F) full sort on every admission walk.
func (q *refQueue[T]) heads() []*refFlow[T] {
	hs := q.scratch[:0]
	for _, f := range q.order {
		if f.q.Len() > 0 {
			hs = append(hs, f)
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		a, _ := hs[i].q.Peek()
		b, _ := hs[j].q.Peek()
		return q.before(a, b)
	})
	q.scratch = hs
	return hs
}

func (q *refQueue[T]) take(f *refFlow[T]) T {
	e := f.q.Pop()
	q.n--
	if q.adm != nil {
		q.adm.OnStart(e.it)
	}
	return e.v
}

func (q *refQueue[T]) Pop() (T, bool) {
	f := q.best()
	if f == nil {
		var zero T
		return zero, false
	}
	return q.take(f), true
}

func (q *refQueue[T]) PopReady() (T, bool) {
	if q.adm == nil {
		return q.Pop()
	}
	for _, f := range q.heads() {
		e, _ := f.q.Peek()
		if !q.adm.Admit(e.it) {
			continue
		}
		return q.take(f), true
	}
	var zero T
	return zero, false
}

func (q *refQueue[T]) Done(v T) {
	if q.adm != nil {
		q.adm.OnDone(q.view(v))
	}
}

func (q *refQueue[T]) Cancel(v T) {
	if q.adm == nil {
		return
	}
	if c, ok := q.adm.(Canceler); ok {
		c.OnCancel(q.view(v))
		return
	}
	q.adm.OnDone(q.view(v))
}

func (q *refQueue[T]) Blocked() bool {
	if q.adm == nil || q.n == 0 {
		return false
	}
	for _, f := range q.heads() {
		e, _ := f.q.Peek()
		if q.adm.Admit(e.it) {
			return false
		}
	}
	return true
}
