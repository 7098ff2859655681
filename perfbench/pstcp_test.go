package main

import (
	"testing"

	"p3/internal/pstcp"
)

// TestSGDCheckIsExact drives the server's own SGD updater over gradients
// from the benchmark's generator and checks that the benchmark's reference
// agrees bit for bit, whichever worker's gradient is summed first, and that
// a one-ulp error is caught.
func TestSGDCheckIsExact(t *testing.T) {
	const n = 5000
	c := &tcpCluster{seed: 7, tbl: make([]float32, 4096)}
	for i := range c.tbl {
		c.tbl[i] = float32(i%17-8) / 16
	}
	c.ref = make([]float32, n)
	c.fill(c.ref, 0, -1)
	param := append([]float32(nil), c.ref...)
	update := pstcp.SGDUpdater(tcpLR)
	for r := 0; r < 50; r++ {
		c.grads = [][]float32{make([]float32, n), make([]float32, n)}
		c.fill(c.grads[0], 0, r)
		c.fill(c.grads[1], 1, r)
		sum := make([]float32, n)
		first, second := c.grads[r%2], c.grads[1-r%2]
		for i := range sum {
			sum[i] += first[i]
			sum[i] += second[i]
		}
		update(0, param, sum, tcpWorkers)
		if !c.sgdExact(param, 0, n) {
			t.Fatalf("round %d: server update differs from the reference", r)
		}
		c.applySGD(0, n)
		if !equal(param, c.ref) {
			t.Fatalf("round %d: reference did not advance to the server's value", r)
		}
	}
	c.grads = [][]float32{make([]float32, n), make([]float32, n)}
	wrong := append([]float32(nil), c.ref...)
	wrong[n/2] = nextUp(wrong[n/2])
	if c.sgdExact(wrong, 0, n) {
		t.Error("a one-ulp error passed the check")
	}
	if c.sgdExact(wrong[:n-1], 0, n) {
		t.Error("a short broadcast passed the check")
	}
}

func TestFillIsSeeded(t *testing.T) {
	a := &tcpCluster{seed: 1, tbl: []float32{0, 1, 2, 3}}
	b := &tcpCluster{seed: 1, tbl: a.tbl}
	x, y := make([]float32, 16), make([]float32, 16)
	a.fill(x, 1, 3)
	b.fill(y, 1, 3)
	if !equal(x, y) {
		t.Fatal("same seed, worker and round gave different gradients")
	}
}

func nextUp(f float32) float32 {
	if f == 0 {
		return 1e-45
	}
	return f * (1 + 1.0/(1<<23))
}
