package sched

import (
	"math/rand/v2"
	"testing"
)

// TestDispatchMatchesLinearScanReference is the bit-parity contract of the
// indexed-heap dispatcher: on every discipline — plain, ranked, profiled and
// credit-gated — every primitive must behave exactly like the retained
// linear-scan reference (reference_test.go) under random interleavings of
// push, pop, admission-gated pop, credit acknowledgements, cancels and
// blocked probes. Both sides run their own fresh discipline instance;
// stateful disciplines (damped's epoch counter, credit-adaptive's AIMD windows)
// stay in lockstep only while every walk consults Admit in the same order,
// so any divergence — in result OR in internal walk order — surfaces as a
// mismatch within a few steps.
func TestDispatchMatchesLinearScanReference(t *testing.T) {
	prof := &Profile{
		NeedAtNs:     []int64{10_000, 20_000, 40_000, 45_000, 90_000, 100_000},
		LayerBytes:   []int64{4_000, 80_000, 2_000, 64_000, 8_000, 120_000},
		GbpsEstimate: 1.5,
	}
	disciplines := []string{
		"fifo", "p3", "damped", "smallest", "tictac",
		"credit:1500", "credit-adaptive:1500",
	}
	for _, name := range disciplines {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(len(name))))
			for trial := 0; trial < 15; trial++ {
				var pri []int32
				var bytes []int64
				var dest []int32
				view := func(i int) Item {
					return Item{Priority: pri[i], Bytes: bytes[i], Dest: dest[i]}
				}
				q := NewQueue(ApplyProfile(MustByName(name), prof), view)
				r := newRefQueue(ApplyProfile(MustByName(name), prof), view)

				push := func() {
					pri = append(pri, int32(rng.IntN(6)))
					bytes = append(bytes, int64(1+rng.IntN(999)))
					dest = append(dest, int32(rng.IntN(5)))
					i := len(pri) - 1
					q.Push(i)
					r.Push(i)
				}
				// inflight holds indices popped (charged) but not yet
				// released; both queues share it because their pops must
				// agree.
				var inflight []int

				for step := 0; step < 500; step++ {
					op := rng.IntN(8)
					if q.Len() == 0 && op < 6 {
						op = 0
					}
					switch op {
					case 0, 1, 2: // push
						push()
					case 3, 4: // PopReady
						gv, gok := q.PopReady()
						wv, wok := r.PopReady()
						if gv != wv || gok != wok {
							t.Fatalf("trial %d step %d: PopReady = (%d,%v), reference (%d,%v)", trial, step, gv, gok, wv, wok)
						}
						if gok {
							inflight = append(inflight, gv)
						}
					case 5: // Pop (drain path: bypasses the gate, still charges)
						gv, gok := q.Pop()
						wv, wok := r.Pop()
						if gv != wv || gok != wok {
							t.Fatalf("trial %d step %d: Pop = (%d,%v), reference (%d,%v)", trial, step, gv, gok, wv, wok)
						}
						if gok {
							inflight = append(inflight, gv)
						}
					case 6: // release an in-flight element: Done or Cancel
						if len(inflight) == 0 {
							continue
						}
						k := rng.IntN(len(inflight))
						v := inflight[k]
						inflight = append(inflight[:k], inflight[k+1:]...)
						if rng.IntN(3) == 0 {
							q.Cancel(v)
							r.Cancel(v)
						} else {
							q.Done(v)
							r.Done(v)
						}
					case 7: // Blocked probe (mutates adaptive state via Admit)
						if g, w := q.Blocked(), r.Blocked(); g != w {
							t.Fatalf("trial %d step %d: Blocked = %v, reference %v", trial, step, g, w)
						}
					}
					if q.Len() != r.Len() {
						t.Fatalf("trial %d step %d: Len %d, reference %d", trial, step, q.Len(), r.Len())
					}
				}
				// Drain both to the end: residual order must match too.
				for {
					gv, gok := q.Pop()
					wv, wok := r.Pop()
					if gv != wv || gok != wok {
						t.Fatalf("trial %d drain: Pop = (%d,%v), reference (%d,%v)", trial, gv, gok, wv, wok)
					}
					if !gok {
						break
					}
				}
			}
		})
	}
}

// TestDrainedFlowsAreEvicted pins the leak fix: a flow whose subqueue
// drains must leave the flow map immediately (the reference — and the old
// dispatcher — kept it forever, which grew without bound on long-running
// transport queues cycling through many destinations).
func TestDrainedFlowsAreEvicted(t *testing.T) {
	var dest int32
	q := NewQueue(NewP3Priority(), func(i int) Item { return Item{Priority: 1, Dest: dest} })
	for round := 0; round < 10_000; round++ {
		dest = int32(round) // a fresh destination every round
		q.Push(round)
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	if len(q.flows) != 0 {
		t.Fatalf("%d drained flows still mapped, want 0 (unbounded growth on long-running queues)", len(q.flows))
	}
	if q.heads.Len() != 0 {
		t.Fatalf("%d drained flows still in the head heap, want 0", q.heads.Len())
	}
	// The shells are recycled, not hoarded: at most one live flow existed at
	// a time, so one shell suffices for all 10k destinations.
	if len(q.free) != 1 {
		t.Fatalf("free list holds %d shells, want 1 (one live flow at a time)", len(q.free))
	}
}

// TestQueueSteadyStateAllocs pins the allocation contract of the dispatch
// hot path: once slabs have grown, push/dispatch/release cycles allocate
// nothing, for plain, ranked and credit-gated disciplines alike.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"p3", "damped", "credit-adaptive:1048576"} {
		t.Run(name, func(t *testing.T) {
			ident := func(it Item) Item { return it }
			q := NewQueue(MustByName(name), ident)
			for i := 0; i < 256; i++ {
				q.Push(Item{Priority: int32(i % 8), Bytes: 64, Dest: int32(i % 32)})
			}
			avg := testing.AllocsPerRun(2000, func() {
				v, ok := q.PopReady()
				if !ok {
					t.Fatal("nothing admissible")
				}
				q.Done(v)
				q.Push(v)
			})
			if avg != 0 {
				t.Fatalf("steady-state dispatch allocates %.2f per op, want 0", avg)
			}
		})
	}
}
