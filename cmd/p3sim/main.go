// Command p3sim runs a single simulated training configuration and reports
// its throughput, iteration breakdown and (optionally) the NIC utilization
// trace of machine 0 — the simulated analogue of one cell of the paper's
// evaluation grid.
//
// Example:
//
//	p3sim -model vgg19 -strategy p3 -bw 15 -machines 4 -slice 50000 -trace
//
// The -sched flag re-runs any strategy under a different queue discipline
// from the internal/sched registry (every name sched.Usage lists, e.g.
// fifo, p3, tictac, credit:<bytes>, damped). An in-flight message always
// finishes before the next one starts: urgent traffic overtakes bulk
// traffic at message boundaries, which the strategy's slicing places:
//
//	p3sim -model vgg19 -strategy slicing -sched credit:1048576 -bw 15
//
// The calibrated mode closes the stall-feedback loop: -calibrate runs two
// passes — the first on the static FLOP-derived timing profile, the second
// on a profile rebuilt from the first pass's measured per-layer stalls —
// and reports both. -stallsout writes the measured stall profile for a
// later p3server/p3worker run; -stalls starts from one instead of the
// static profile:
//
//	p3sim -model vgg19 -strategy tictac -bw 1.5 -calibrate -stallsout vgg19.stalls
//	p3sim -model vgg19 -strategy tictac -bw 1.5 -stalls vgg19.stalls
//
// Fault injection replays (or generates) a deterministic scripted plan of
// aggregator crashes, straggler windows, link degradations and worker
// leave/join events (see internal/faults). -faultplan loads a JSON plan,
// -faultseed generates one matched to the topology flags; both are
// validated against the configured cluster before the run starts:
//
//	p3sim -model resnet50 -machines 16 -racksize 4 -oversub 4 -rackagg -faultseed 7
//	p3sim -model resnet50 -machines 16 -racksize 4 -oversub 4 -rackagg -faultplan crash.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"p3/internal/cluster"
	"p3/internal/sched"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

func main() {
	modelName := flag.String("model", "resnet50", "model: resnet50|inception3|vgg19|sockeye|resnet110")
	stratName := flag.String("strategy", "p3", "strategy: baseline|tensorflow|wfbp|slicing|p3|asgd")
	schedName := flag.String("sched", "", "override the strategy's queue discipline: "+strings.Join(sched.Usage(), "|"))
	bw := flag.Float64("bw", 10, "per-direction NIC bandwidth in Gbps")
	machines := flag.Int("machines", 4, "cluster size (workers == servers == machines)")
	slice := flag.Int64("slice", 0, "max slice size in parameters (0 = paper default 50k; slicing/p3 only)")
	iters := flag.Int("iters", 8, "measured iterations")
	warmup := flag.Int("warmup", 2, "warm-up iterations")
	seed := flag.Int64("seed", 1, "workload seed")
	showTrace := flag.Bool("trace", false, "print machine 0's 10ms utilization trace")
	showLayers := flag.Bool("layers", false, "print the model's per-tensor table (Figure 5 data) and exit")
	calibrate := flag.Bool("calibrate", false, "two-pass calibrated mode: re-run with the profile rebuilt from the first pass's measured stalls and report both")
	stallsIn := flag.String("stalls", "", "run against a measured stall profile (file written by -stallsout) instead of the static timing")
	stallsOut := flag.String("stallsout", "", "write the run's measured per-layer mean stalls to this file")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "simulation shards for the conservative-lookahead parallel engine (1 = legacy single-heap engine; results are bit-identical either way)")
	rackSize := flag.Int("racksize", 0, "machines per rack (0 = flat network; >0 adds per-rack ToR uplinks and an oversubscribable core)")
	oversub := flag.Float64("oversub", 1, "core oversubscription ratio for -racksize topologies (1 = non-blocking core, values in (0,1) undersubscribe)")
	coreSched := flag.String("coresched", "", "queue discipline for the ToR core ports (requires -racksize; empty = blind FIFO ports)")
	rackAgg := flag.Bool("rackagg", false, "in-rack gradient aggregation: reduce pushes at each rack's ToR and fan broadcasts out there (requires -racksize)")
	pods := flag.Int("pods", 0, "group the racks into this many equal pods joined by a spine tier (0 = single-tier core; requires -racksize)")
	spineOversub := flag.Float64("spineoversub", 1, "spine oversubscription ratio relative to each pod's aggregate ToR-uplink rate (requires -pods)")
	spineSched := flag.String("spinesched", "", "queue discipline for the spine ports (requires -pods; empty = blind FIFO ports)")
	hierAgg := flag.Bool("hieragg", false, "hierarchical aggregation: reduce again at each pod's spine so one stream per pod reaches the server tier (requires -rackagg and -pods)")
	rackLocal := flag.Bool("racklocalps", false, "rack-local parameter serving: rack aggregators cache updated chunks and answer in-rack pulls without crossing the core (requires -rackagg)")
	aggRate := flag.Float64("aggrate", 0, "aggregator reduce rate in GB/s: each aggregator serializes ingest at this rate before reducing (0 = instantaneous; requires -rackagg)")
	faultPlan := flag.String("faultplan", "", "replay a scripted fault plan from this JSON file (see internal/faults; validated against the topology flags)")
	faultSeed := flag.Int64("faultseed", 0, "generate a deterministic scripted fault plan from this seed (0 = no faults; mutually exclusive with -faultplan)")
	flag.Parse()

	st, err := strategy.ByName(*stratName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3sim:", err)
		os.Exit(2)
	}
	if *schedName != "" {
		st, err = st.WithSched(*schedName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
			os.Exit(2)
		}
	}
	if *slice > 0 && st.Granularity == strategy.Slices {
		st.MaxSliceParams = *slice
	}

	m := zoo.ByName(*modelName)
	if *showLayers {
		fmt.Print(m.Table())
		return
	}

	var rec *trace.Recorder
	if *showTrace {
		rec = trace.NewRecorder(*machines, 0)
	}
	// The sharded engine cannot serve the utilization recorder (shared
	// buckets); it falls back to the legacy engine, which produces the
	// identical Result. Credit-gated disciplines shard like every other
	// since the window-relaxed refund protocol (refunds land one lookahead
	// after delivery, inside the conservative barrier window).
	nShards := *shards
	if nShards > *machines {
		nShards = *machines
	}
	if rec != nil {
		nShards = 1
	}
	cfg := cluster.Config{
		Model:         m,
		Machines:      *machines,
		Strategy:      st,
		BandwidthGbps: *bw,
		WarmupIters:   *warmup,
		MeasureIters:  *iters,
		Seed:          *seed,
		Recorder:      rec,
		Shards:        nShards,
	}
	topo, useTopo, err := topologyFromFlags(topoFlags{
		machines: *machines, rackSize: *rackSize, oversub: *oversub,
		coreSched: *coreSched, rackAgg: *rackAgg, async: st.Async,
		pods: *pods, spineOversub: *spineOversub, spineSched: *spineSched,
		hierAgg: *hierAgg, rackLocal: *rackLocal, aggRate: *aggRate,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3sim:", err)
		os.Exit(2)
	}
	if useTopo {
		cfg.Topology = topo
		cfg.RackAggregation = *rackAgg
		cfg.HierAggregation = *hierAgg
		cfg.RackLocalPS = *rackLocal
		cfg.AggReduceGBps = *aggRate
	}
	plan, err := faultsFromFlags(faultFlags{
		planPath: *faultPlan, seed: *faultSeed, machines: *machines,
		topo: topo, rackAgg: useTopo && *rackAgg, hierAgg: useTopo && *hierAgg,
		rackLocal: useTopo && *rackLocal, pull: st.Pull,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3sim:", err)
		os.Exit(2)
	}
	cfg.Faults = plan
	if *stallsIn != "" {
		stalls, err := strategy.ReadStallFile(*stallsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
			os.Exit(2)
		}
		cfg.Profile = strategy.CalibrateProfile(m, *bw, stalls)
	}
	var r cluster.Result
	if *calibrate {
		// Two passes by hand rather than cluster.RunCalibrated so the
		// utilization recorder (and any -stallsout artifact) reflects only
		// the calibrated pass.
		first := cfg
		first.Recorder = nil
		static := cluster.Run(first)
		cfg.Profile = strategy.CalibrateProfile(m, *bw, static.MeanLayerStalls())
		r = cluster.Run(cfg)
		firstLabel := "static"
		if *stallsIn != "" {
			firstLabel = "stall-file" // the first pass already ran on -stalls
		}
		fmt.Printf("calibrated:  %s pass %.2f ms/iter (stall %.2f ms) -> measured-profile pass %.2f ms/iter (stall %.2f ms)\n",
			firstLabel, static.MeanIterTime.Millis(), static.TotalStall().Millis(),
			r.MeanIterTime.Millis(), r.TotalStall().Millis())
	} else {
		r = cluster.Run(cfg)
	}
	if *stallsOut != "" {
		if err := strategy.WriteStallFile(*stallsOut, r.MeanLayerStalls()); err != nil {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote measured stall profile to %s\n", *stallsOut)
	}

	topoDesc := "flat"
	if useTopo {
		topoDesc = fmt.Sprintf("racks of %d, core %g:1", *rackSize, *oversub)
		if *pods > 0 {
			topoDesc += fmt.Sprintf(", %d pods, spine %g:1", *pods, *spineOversub)
		}
		if *coreSched != "" {
			topoDesc += ", core sched " + *coreSched
		}
		if *spineSched != "" {
			topoDesc += ", spine sched " + *spineSched
		}
		switch {
		case *hierAgg:
			topoDesc += ", hierarchical aggregation"
		case *rackAgg:
			topoDesc += ", in-rack aggregation"
		}
		if *rackLocal {
			topoDesc += ", rack-local PS"
		}
		if *aggRate > 0 {
			topoDesc += fmt.Sprintf(", agg %g GB/s", *aggRate)
		}
	}
	fmt.Printf("model:       %s (%s)\n", m.Name, m)
	fmt.Printf("strategy:    %s  sched: %s  machines: %d  bandwidth: %g Gbps\n",
		st.Name, st.Discipline(), r.Machines, r.BandwidthGbps)
	fmt.Printf("engine:      %d shard(s)  topology: %s\n", nShards, topoDesc)
	fmt.Printf("throughput:  %.1f %s/s aggregate (%.1f per machine)\n",
		r.Throughput, m.SampleUnit, r.Throughput/float64(r.Machines))
	fmt.Printf("iteration:   %.2f ms mean (pure compute %.2f ms, comm overhead %.2f ms)\n",
		r.MeanIterTime.Millis(), r.ComputeIterTime.Millis(),
		(r.MeanIterTime - r.ComputeIterTime).Millis())
	fmt.Printf("sim cost:    %d events, %d messages, %.1f MB on the wire\n",
		r.Events, r.Msgs, float64(r.WireBytes)/1e6)
	if plan != nil {
		fmt.Printf("faults:      %d injected, %d agg failovers, %d lost reductions, %.1f ms degraded links\n",
			r.FaultsInjected, r.AggFailovers, r.LostReductions, float64(r.DegradedNs)/1e6)
	}

	if rec != nil {
		skip := int(r.WarmupEnd / rec.Bucket())
		out, in := rec.Gbps(0, trace.Out), rec.Gbps(0, trace.In)
		fmt.Println("\nbucket\toutbound_gbps\tinbound_gbps")
		for i := skip; i < len(out) && i < skip+250; i++ {
			iv := 0.0
			if i < len(in) {
				iv = in[i]
			}
			fmt.Printf("%d\t%.3f\t%.3f\n", i-skip, out[i], iv)
		}
	}
}
