package pstcp

import (
	"sync"
	"testing"
	"time"

	"p3/internal/transport"
)

// TestWholeFrameTransmissionEndToEnd runs the real TCP parameter server on
// loopback with a bulk gradient frame queued ahead of many small urgent
// ones every iteration, and asserts the protocol is byte-faithful: all
// pushes aggregate, every worker receives every broadcast, and the
// broadcast values are exactly the aggregated update.
func TestWholeFrameTransmissionEndToEnd(t *testing.T) {
	const (
		nWorkers = 3
		iters    = 5
		bigKey   = uint64(0)
		bigLen   = 60_000 // ~240 KB frames
		smallLen = 8
		nSmall   = 16
	)
	srv := NewServer(ServerConfig{
		ID:      0,
		Workers: nWorkers,
		Sched:   "p3",
		// Store the raw sum: every worker pushes the same value per key, so
		// the expected broadcast is exactly value*nWorkers in float32.
		Updater: func(_ uint64, param, sum []float32, workers int) { copy(param, sum) },
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			type got struct {
				key  uint64
				iter int32
				vals []float32
			}
			recv := make(chan got, 64)
			worker, err := DialWorkerCfg(WorkerConfig{
				ID: id, Servers: []string{addr}, Sched: "p3",
				Handler: func(f *transport.Frame) {
					recv <- got{f.Key, f.Iter, f.Values}
				},
			})
			if err != nil {
				errs <- err
				return
			}
			defer worker.Close()
			if id == 0 {
				worker.Init(0, bigKey, make([]float32, bigLen))
				for k := 1; k <= nSmall; k++ {
					worker.Init(0, uint64(k), make([]float32, smallLen))
				}
				time.Sleep(100 * time.Millisecond)
			} else {
				time.Sleep(150 * time.Millisecond)
			}
			for it := int32(0); it < iters; it++ {
				// The bulk frame goes first at low urgency, the small
				// frames afterwards at high urgency.
				big := make([]float32, bigLen)
				for i := range big {
					big[i] = float32(it + 1)
				}
				worker.Push(0, bigKey, it, 1000, big)
				for k := 1; k <= nSmall; k++ {
					small := make([]float32, smallLen)
					for i := range small {
						small[i] = float32(k)
					}
					worker.Push(0, uint64(k), it, int32(k), small)
				}
				need := map[uint64]bool{bigKey: true}
				for k := 1; k <= nSmall; k++ {
					need[uint64(k)] = true
				}
				deadline := time.After(20 * time.Second)
				for len(need) > 0 {
					select {
					case g := <-recv:
						if g.iter != it || !need[g.key] {
							continue // stale duplicate from a previous sync
						}
						delete(need, g.key)
						want := float32(0)
						if g.key == bigKey {
							want = float32(it+1) * nWorkers
							if len(g.vals) != bigLen {
								t.Errorf("worker %d: big frame carries %d values", id, len(g.vals))
							}
						} else {
							want = float32(g.key) * nWorkers
							if len(g.vals) != smallLen {
								t.Errorf("worker %d: small frame carries %d values", id, len(g.vals))
							}
						}
						for i, v := range g.vals {
							if v != want {
								t.Errorf("worker %d iter %d key %d: value[%d] = %v, want %v",
									id, it, g.key, i, v, want)
								break
							}
						}
					case <-deadline:
						t.Errorf("worker %d iter %d: timed out waiting for %d broadcasts", id, it, len(need))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pushes, updates := srv.Stats()
	wantPushes := int64(nWorkers * iters * (nSmall + 1))
	if pushes != wantPushes || updates != int64(iters*(nSmall+1)) {
		t.Fatalf("server stats: %d pushes, %d updates; want %d, %d",
			pushes, updates, wantPushes, iters*(nSmall+1))
	}
}
