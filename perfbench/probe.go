package main

import (
	"fmt"
	"math/rand/v2"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its caches and memory with other
// tenants, and their load moves the simulator's cell times by up to 2x
// within minutes. Those cells are bound by memory latency: across one
// such window, a ps64 cell's time correlated 0.85 with the latency of a
// dependent random walk over 32 MiB measured just before it, and 0.31 with
// an ALU spin loop. So every timed operation is bracketed by a walk, and
// the time metrics are scaled to a fixed reference latency: a program
// change moves them, a neighbour's load mostly does not.
const (
	probeBytes = 32 << 20
	probeSteps = 1 << 19
	// refProbeNs is the reference walk latency time metrics are scaled
	// to: roughly the quiet-host value on the 2-vCPU Xeon the bounds
	// were measured on.
	refProbeNs = 150.0
)

// memProbe is a random cyclic permutation: next[i] is the element the
// walk visits after i.
type memProbe struct{ next []uint32 }

var probeSink uint32

// newMemProbe maps the walk's array outside the Go heap, so that it
// neither paces the collector nor is scanned by it.
func newMemProbe() (*memProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("memory probe: %w", err)
	}
	p := &memProbe{next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeBytes/4)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniformly random permutation with one cycle,
	// so the walk covers the whole array.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.IntN(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p, nil
}

// ns walks probeSteps dependent loads and returns the mean latency of one.
func (p *memProbe) ns() float64 {
	t := time.Now()
	j := uint32(0)
	for i := 0; i < probeSteps; i++ {
		j = p.next[j]
	}
	probeSink = j
	return float64(time.Since(t).Nanoseconds()) / probeSteps
}

// scale is the factor that converts a time measured between walks of
// latency before and after into reference-latency time.
func scale(before, after float64) float64 { return refProbeNs / ((before + after) / 2) }
