// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the per-layer
// split from a traced run. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload ps64 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"p3/internal/benchmarks"
)

// simSetupReps is how many times a simulator workload repeats its set-up;
// setup_s is the median.
const simSetupReps = 1000

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tracer   *tracer // nil unless traced
	probe    *memProbe
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]float64
	profile           []byte // the last traced operation's CPU profile
}

var workloads = []string{"ps64", "ring32", "hier256", "pstcp"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 25, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span traces and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if o.traced {
		o.tracer = newTracer()
	}
	var err error
	if o.probe, err = newMemProbe(); err != nil {
		return err
	}

	meta := runMeta(o)
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(metaLine))

	var rep *report
	switch c, isSim := simCells[o.workload]; {
	case isSim:
		rep, err = runSimWorkload(c, o)
	case o.workload == "pstcp":
		rep, err = runTCPWorkload(o)
	default:
		return fmt.Errorf("unknown workload %q: want one of %v", o.workload, workloads)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}

	defs, vals := endToEnd, rep.e2e
	if o.traced {
		defs, vals = perLayer, rep.layer
		if err := writeTraceFiles(*out, o, meta, rep); err != nil {
			return err
		}
	}
	metrics, err := buildMetrics(defs, vals)
	if err != nil {
		return err
	}
	fmt.Println(result{
		Correct:   rep.failed == 0 && len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}.line())
	return nil
}

// runMeta records what a result was measured on.
func runMeta(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.traced,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"calib_ns":   calibrate(),
	}
}

// calibrate runs benchmarks.Calibrate, the spin loop the repository's
// dispatch gate scales time by, at a 100ms bench time instead of the
// testing package's 1s default so it costs about a second.
func calibrate() float64 {
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", "100ms"); err != nil {
		panic(err) // registered by testing.Init
	}
	return benchmarks.Calibrate()
}

// writeTraceFiles stores the traced run's spans (Chrome trace-event JSON,
// with the run metadata beside them) and its last CPU profile.
func writeTraceFiles(dir string, o options, meta map[string]any, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := o.tracer.write(stem + ".trace.json"); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	m, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".meta.json", m, 0o644); err != nil {
		return err
	}
	if len(rep.profile) > 0 {
		return os.WriteFile(stem+".cpu.pprof", rep.profile, 0o644)
	}
	return nil
}

// counters is a snapshot of the process's clocks and allocator.
type counters struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func takeCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return counters{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs,
	}
}

// sub returns the change from b to a as one cell's sample.
func (a counters) sub(b counters) cellSample {
	return cellSample{
		wall: a.at.Sub(b.at), cpu: a.cpu - b.cpu,
		mallocs: a.mallocs - b.mallocs, alloc: a.alloc - b.alloc,
		gcs: a.gcs - b.gcs, pauseNs: a.pauseNs - b.pauseNs,
	}
}

// peakRSSMB is the process's maximum resident set so far, in MB, less the
// memory probe's array, which stays resident for the whole run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss*1024-probeBytes) / 1e6 // Linux reports KiB
}
