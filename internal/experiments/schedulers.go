package experiments

import (
	"fmt"

	"p3/internal/cluster"
	"p3/internal/ring"
	"p3/internal/sched"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// SchedDisciplines returns the discipline sweep of the scheduler ablation:
// every name in the sched registry (fifo, p3, smallest, credit, tictac,
// credit-adaptive, damped, ...), applied to the same sliced/immediate-broadcast
// strategy so ordering is the only variable. Reading the registry at call
// time (not package init) means a discipline registered from anywhere —
// even a late init — joins the sweep for free.
func SchedDisciplines() []string { return sched.Names() }

// Aggregation paths the ablation sweeps: the parameter-server cluster
// simulator and the ring all-reduce simulator.
const (
	PathCluster = "cluster"
	PathRing    = "ring"
)

// SchedulerRow is one (model, path, discipline) cell of the scheduler
// ablation.
type SchedulerRow struct {
	Model         string
	BandwidthGbps float64
	// Path is the aggregation path: "cluster" (parameter server) or "ring"
	// (all-reduce).
	Path  string
	Sched string
	// PerMachine is the per-machine training throughput (samples/sec).
	PerMachine float64
	// IterMs is the mean iteration makespan in milliseconds.
	IterMs float64
	// TTCSpeedup is the time-to-convergence speedup over fifo on the same
	// path. Synchronous SGD's convergence trajectory is
	// identical under every discipline (the wire order changes, the math
	// does not), so time-to-convergence scales exactly with iteration
	// time: fifo_iter / sched_iter.
	TTCSpeedup float64
}

// schedCases returns the (model, bandwidth) grid of the ablation: each
// sweep model at its paper-headline bandwidth, plus every zoo model at the
// 1.5 Gbps bottleneck where ordering dominates. Fast mode
// trims the low-bandwidth axis to the cheapest model.
func schedCases(o Options) []struct {
	model string
	gbps  float64
} {
	cases := []struct {
		model string
		gbps  float64
	}{
		{"resnet50", 4},
		{"vgg19", 15},
		{"sockeye", 4},
	}
	if o.Fast {
		return append(cases, struct {
			model string
			gbps  float64
		}{"resnet110", 1.5})
	}
	for _, m := range []string{"resnet50", "inception3", "vgg19", "sockeye", "resnet110"} {
		cases = append(cases, struct {
			model string
			gbps  float64
		}{m, 1.5})
	}
	return cases
}

// SchedulerAblation compares every registered queue discipline on the zoo
// models, on both aggregation paths — the payoff of extracting
// internal/sched: the paper's p3-vs-fifo comparison becomes one row pair in
// a sweep that also covers shortest-job-first, ByteScheduler-style credit
// windows, TicTac critical-path ranking, per-destination adaptive credit
// and fan-in-aware damping, with no change outside the strategy's
// Sched name.
func SchedulerAblation(o Options) []SchedulerRow {
	warm, measure := o.iters()
	// Flatten the sweep into independent cells first, then fill every cell
	// on the parEach worker pool: each cell is one pure simulation, so the
	// table comes out bit-identical to the serial sweep, only bounded by
	// the slowest core instead of the sum of all cells. The fifo cell
	// doubles as the TTCSpeedup reference of its (model, path)
	// group, resolved in a serial pass after the measurements land.
	type cell struct {
		model string
		gbps  float64
		path  string
		sched string
	}
	var cells []cell
	for _, c := range schedCases(o) {
		for _, path := range []string{PathCluster, PathRing} {
			for _, name := range SchedDisciplines() {
				cells = append(cells, cell{c.model, c.gbps, path, name})
			}
		}
	}
	rows := make([]SchedulerRow, len(cells))
	parEach(len(cells), func(i int) {
		c := cells[i]
		st, err := strategy.SlicingOnly(0).WithSched(c.sched)
		if err != nil {
			panic(err) // SchedDisciplines() only holds registered names
		}
		st.Name = "sliced+" + c.sched
		m := zoo.ByName(c.model) // fresh model per cell: nothing shared across goroutines
		row := SchedulerRow{
			Model:         c.model,
			BandwidthGbps: c.gbps,
			Path:          c.path,
			Sched:         c.sched,
		}
		if c.path == PathRing {
			r := ring.Run(ring.Config{
				Model: m, Machines: 4, Strategy: st, BandwidthGbps: c.gbps,
				WarmupIters: warm, MeasureIters: measure, Seed: o.Seed + 1,
			})
			row.PerMachine = r.Throughput / float64(r.Machines)
			row.IterMs = r.MeanIterTime.Millis()
		} else {
			r := cluster.Run(cluster.Config{
				Model: m, Machines: 4, Strategy: st, BandwidthGbps: c.gbps,
				WarmupIters: warm, MeasureIters: measure, Seed: o.Seed + 1,
			})
			row.PerMachine = r.Throughput / float64(r.Machines)
			row.IterMs = r.MeanIterTime.Millis()
		}
		rows[i] = row
	})
	// Resolve TTCSpeedup against each (model, bandwidth, path) group's
	// fifo row (a model appears at several bandwidths).
	type group struct {
		model string
		gbps  float64
		path  string
	}
	fifoIter := make(map[group]float64)
	for i := range rows {
		if rows[i].Sched == "fifo" {
			fifoIter[group{rows[i].Model, rows[i].BandwidthGbps, rows[i].Path}] = rows[i].IterMs
		}
	}
	for i := range rows {
		rows[i].TTCSpeedup = fifoIter[group{rows[i].Model, rows[i].BandwidthGbps, rows[i].Path}] / rows[i].IterMs
	}
	return rows
}

// SchedulerTable renders the ablation, one line per (model, path,
// discipline) cell.
func SchedulerTable(rows []SchedulerRow) string {
	out := "model\tGbps\tpath\tsched\tsamples/s/machine\titer_ms\tttc_speedup_vs_fifo\n"
	for _, r := range rows {
		out += fmt.Sprintf("%s\t%g\t%s\t%s\t%.1f\t%.2f\t%.3fx\n",
			r.Model, r.BandwidthGbps, r.Path, r.Sched, r.PerMachine, r.IterMs, r.TTCSpeedup)
	}
	return out
}
