package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                        "runtime",
		"p3/internal/sim.(*Engine).Run":                           "p3/internal/sim",
		"p3/internal/pq.(*Heap[go.shape.struct { p3/x.y }]).Push": "p3/internal/pq",
		"p3/internal/cluster.newClusterSim.func3":                 "p3/internal/cluster",
		"internal/runtime/syscall.Syscall6":                       "internal/runtime/syscall",
		"net.(*conn).Read":                                        "net",
		"main.(*tcpCluster).onFrame":                              "main",
		"p3/internal/sched.Push[go.shape.int]":                    "p3/internal/sched",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	const repo = "/src/p3/internal/"
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	for _, c := range []struct {
		name   string
		frames []frame
		want   string
	}{
		{"layer leaf", []frame{f("p3/internal/sched.(*Queue).Push", repo+"sched/queue.go")}, "sched"},
		{"runtime helper charged to caller", []frame{
			f("runtime.memmove", "/go/src/runtime/memmove_amd64.s"),
			f("p3/internal/netsim.(*Network).send", repo+"netsim/netsim.go"),
		}, "netsim"},
		{"malloc anywhere is runtime", []frame{
			f("runtime.memclrNoHeapPointers", "/go/src/runtime/memclr_amd64.s"),
			f("runtime.mallocgc", "/go/src/runtime/malloc.go"),
			f("p3/internal/transport.ReadFrame", repo+"transport/frame.go"),
		}, "runtime"},
		{"gc worker", []frame{f("runtime.scanobject", "/go/src/runtime/mgcmark.go"), f("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go")}, "runtime"},
		{"socket path", []frame{
			f("internal/runtime/syscall.Syscall6", "/go/src/internal/runtime/syscall/asm.s"),
			f("syscall.read", "/go/src/syscall/zsyscall.go"),
			f("p3/internal/transport.ReadFrame", repo+"transport/frame.go"),
		}, "net"},
		{"inlined closure goes by file", []frame{
			f("main.newTCPCluster.SGDUpdater.func2", repo+"pstcp/server.go"),
			f("p3/internal/pstcp.(*Server).handlePush", repo+"pstcp/server.go"),
		}, "pstcp"},
		{"benchmark callback is not its caller's", []frame{
			f("main.(*tcpCluster).sgdExact", "/src/p3/perfbench/pstcp.go"),
			f("p3/internal/pstcp.(*Worker).readLoop", repo+"pstcp/worker.go"),
		}, "other"},
		{"scheduler", []frame{f("runtime.futex", "/go/src/runtime/os_linux.go"), f("runtime.mstart", "/go/src/runtime/proc.go")}, "other"},
		{"empty stack", nil, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a profile with three stacks: 6 samples in
// sim, 3 in netsim reached through an inlined runtime helper, and 1 in
// malloc under cluster.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"p3/internal/sim.(*Engine).Run", "/r/internal/sim/sim.go", // 1, 2
		"p3/internal/netsim.(*Network).send", "/r/internal/netsim/netsim.go", // 3, 4
		"runtime.memmove", "/go/src/runtime/memmove.s", // 5, 6
		"runtime.mallocgc", "/go/src/runtime/malloc.go", // 7, 8
		"p3/internal/cluster.(*clusterSim).deliver", "/r/internal/cluster/cluster.go", // 9, 10
	}
	p := &pb{}
	fn := func(id, name, file uint64) {
		p.bytes(5, (&pb{}).varint(1, id).varint(2, name).varint(4, file).b)
	}
	fn(1, 1, 2)
	fn(2, 3, 4)
	fn(3, 5, 6)
	fn(4, 7, 8)
	fn(5, 9, 10)
	line := func(fnID uint64) []byte { return (&pb{}).varint(1, fnID).varint(2, 10).b }
	// Location 1: sim. Location 2: memmove inlined into netsim (innermost
	// first). Location 3: mallocgc. Location 4: cluster.
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(1)).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(3)).bytes(4, line(2)).b)
	p.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(4)).b)
	p.bytes(4, (&pb{}).varint(1, 4).bytes(4, line(5)).b)
	// Samples: locations leaf first, values (count, nanoseconds) packed.
	p.bytes(2, (&pb{}).bytes(1, packed(1)).bytes(2, packed(6, 60e6)).b)
	p.bytes(2, (&pb{}).bytes(1, packed(2, 1)).bytes(2, packed(3, 30e6)).b)
	// One sample with unpacked location ids.
	p.bytes(2, (&pb{}).varint(1, 3).varint(1, 4).bytes(2, packed(1, 10e6)).b)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	samples, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if got := samples[1].frames; len(got) != 3 || got[0].fn != "runtime.memmove" || got[1].fn != "p3/internal/netsim.(*Network).send" {
		t.Fatalf("inlined frames = %+v, want memmove then netsim then sim", got)
	}
	a := cpuAttribution{}
	a.add(samples)
	shares := a.shares()
	want := map[string]float64{"sim": 0.6, "netsim": 0.3, "runtime": 0.1}
	sum := 0.0
	for _, l := range cpuLayers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input accepted")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, one byte present
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("truncated protobuf accepted")
	}
}

// TestParseRealProfile decodes a profile written by runtime/pprof, so the
// reader stays in step with the format the runtime actually emits.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	pprof.StopCPUProfile()
	sink = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.weight <= 0 || len(s.frames) == 0 {
			t.Fatalf("sample %+v has no weight or frames", s)
		}
	}
}

var sink uint64
