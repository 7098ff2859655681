package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"path/filepath"
	"strings"
)

// cpuLayers are the classes a CPU-profile sample is attributed to; their
// shares sum to 1. The p3 layers are the module's packages; "runtime" is
// allocation, garbage collection and write barriers; "net" is the kernel
// socket path (syscalls, the poller and package net); "other" is the rest,
// the benchmark's own code and the scheduler included.
var cpuLayers = []string{
	"sim", "sched", "pq", "netsim", "cluster", "ring", "transport", "pstcp",
	"runtime", "net", "other",
}

var p3Layers = map[string]bool{
	"sim": true, "sched": true, "pq": true, "netsim": true,
	"cluster": true, "ring": true, "transport": true, "pstcp": true,
}

// gcFrames prefix the runtime functions that allocate, collect or run a
// write barrier; a sample with any of them on its stack is "runtime".
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMark", "runtime.markroot",
	"runtime.scanobject", "runtime.gcWriteBarrier", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*gcWork)",
}

var netPackages = map[string]bool{
	"net": true, "internal/poll": true, "syscall": true, "internal/runtime/syscall": true,
}

var netFrames = []string{"runtime.netpoll", "runtime.entersyscall", "runtime.exitsyscall"}

// packageOf returns the import path of a profiled function name such as
// "p3/internal/pq.(*Heap[go.shape.int]).Push": the path ends at the first
// '.' after the last '/' that precedes any receiver or type argument.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	fn   string // e.g. "p3/internal/sim.(*Engine).Run"
	file string // its source file
}

// layerOfFile names the p3 layer a source file belongs to, or "".
// Attribution goes by file rather than function name because an inlined
// closure is named after the function it was inlined into: pstcp's SGD
// updater, inlined where the benchmark builds it, is named main.*.
func layerOfFile(file string) string {
	dir := path.Dir(filepath.ToSlash(file))
	if l := path.Base(dir); p3Layers[l] && path.Base(path.Dir(dir)) == "internal" {
		return l
	}
	return ""
}

// classify attributes one stack, innermost frame first. Allocation and GC
// anywhere on the stack win. Otherwise the innermost frame that belongs to
// a p3 layer, to the socket path or to the benchmark itself names the
// class, so a runtime helper (memmove, map access) or an inlined standard
// library call is charged to the layer that called it, and work in the
// benchmark's callbacks is not charged to the layer that invoked them.
func classify(frames []frame) string {
	for _, f := range frames {
		if hasPrefixAny(f.fn, gcFrames) {
			return "runtime"
		}
	}
	for _, f := range frames {
		if l := layerOfFile(f.file); l != "" {
			return l
		}
		pkg := packageOf(f.fn)
		if netPackages[pkg] || hasPrefixAny(f.fn, netFrames) {
			return "net"
		}
		if pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// cpuAttribution accumulates profile samples per class.
type cpuAttribution map[string]int64

func (a cpuAttribution) add(samples []stackSample) {
	for _, s := range samples {
		a[classify(s.frames)] += s.weight
	}
}

// shares returns each class's share of all samples (all 0 without any).
func (a cpuAttribution) shares() map[string]float64 {
	var total int64
	for _, v := range a {
		total += v
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(a[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// stackSample is one profile sample: its frames innermost first, and its
// sample count.
type stackSample struct {
	frames []frame
	weight int64
}

// parseProfile decodes a gzipped pprof protobuf (as runtime/pprof writes
// it) into stack samples. Only the fields attribution needs are read:
// samples (location ids, first value), locations (their line entries,
// innermost inlined function first), functions (name and file) and the
// string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64][2]int64{} // function id -> string indexes of name and file
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					return appendVarints(&values, wire, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name [2]int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name[0] = int64(v)
				case 4:
					name[1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []frame
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx, ok := fnName[fn]
				if !ok || idx[0] >= int64(len(strs)) || idx[1] >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				frames = append(frames, frame{fn: strs[idx[0]], file: strs[idx[1]]})
			}
		}
		out = append(out, stackSample{frames: frames, weight: s.value})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
