// Command mronline runs one benchmark job on the simulated 19-node
// cluster under a chosen tuning strategy and prints a run report.
//
// Usage:
//
//	mronline -bench terasort/100GB -strategy aggressive [-seed 42] [-kb kb.json] [-json]
//
// Strategies:
//
//	default       stock YARN configuration (Table 2 defaults)
//	offline       static config from the offline tuning guide (needs a
//	              profiling run, performed automatically)
//	conservative  MRONLINE fast-single-run tuning (use case 2)
//	aggressive    MRONLINE expedited test run (use case 1): runs the
//	              test run, then re-runs with the best configuration
//	kb            look up the configuration in the knowledge base file
//
// -kb names the knowledge-base JSON file, one per cluster, keyed by
// (app, input scale). An aggressive run warm-starts its search from the
// class's stored search state and writes back its best configuration
// and search state; a kb run reads the stored configuration. A missing
// file starts an empty knowledge base; an unreadable or corrupt one
// exits 2 without touching it, and a failed save exits 1. -tuner
// selects the search backend the aggressive test run uses (hill, spsa,
// or tpe).
//
// -compare runs default, offline, conservative and aggressive and
// prints one comparison table; it exits 2 when combined with a per-run
// output flag (-trace, -gantt, -explain, -counters, -json,
// -speculation).
//
// A job fails when a task fails all its attempts; its time is then the
// time it gave up, not a result. The report prints "job time: failed
// (gave up after N s)" and -json adds "failed": true; -compare prints
// "failed" as the job time and no gain for that strategy.
//
// -stream <hours> switches to the continuous-serving workload: hours
// of mixed-job arrivals on the 10,016-node cluster (-strategy default
// or conservative). -cells runs it on the rack-cell partition (one
// self-contained cell per rack); the whole-cluster default stays the
// byte-exact figure reference. A negative, infinite or NaN -stream, or
// one too long to simulate, exits 2. A failed stream job counts in
// completed and also in failed, printed after the report as
// "failed=N (counted in completed)" and in -json as "failed".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "terasort/100GB", "benchmark name (see -list)")
		strategy  = flag.String("strategy", "default", "default|offline|conservative|aggressive|kb")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		kbPath    = flag.String("kb", "", "knowledge base JSON file (read by kb and aggressive runs, written by aggressive)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
		traceOut  = flag.String("trace", "", "write the job timeline as JSON Lines to this file")
		gantt     = flag.Bool("gantt", false, "print a per-node occupancy chart after the run")
		specPath  = flag.String("spec", "", "load a custom benchmark from a JSON spec instead of -bench")
		speculate = flag.Bool("speculation", false, "enable speculative execution (straggler mitigation)")
		faultSpec = flag.String("faults", "", "inject faults from this JSON spec (see examples/faults/)")
		compare   = flag.Bool("compare", false, "run default, offline, conservative and aggressive and print a comparison")
		explain   = flag.Bool("explain", false, "print what the tuner learned (conservative/aggressive strategies)")
		counters  = flag.Bool("counters", false, "print the full job counter summary")
		tunerName = flag.String("tuner", "hill", "optimizer backend for aggressive runs: "+strings.Join(tuner.Backends(), "|"))
		stream    = flag.Float64("stream", 0, "run the continuous-serving stream for this many simulated hours on the 10,016-node cluster instead of a single job")
		cells     = flag.Bool("cells", false, "run -stream on the rack-cell partition (one cell per rack) instead of the whole cluster")
	)
	flag.Parse()

	if !slices.Contains(tuner.Backends(), *tunerName) {
		fmt.Fprintf(os.Stderr, "unknown -tuner backend %q (registered: %s)\n",
			*tunerName, strings.Join(tuner.Backends(), ", "))
		os.Exit(2)
	}
	if *stream < 0 || math.IsNaN(*stream) || math.IsInf(*stream, 0) {
		fmt.Fprintf(os.Stderr, "-stream takes 0 or a positive finite number of hours, got %v\n", *stream)
		os.Exit(2)
	}
	if *compare {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"trace", *traceOut != ""}, {"gantt", *gantt}, {"explain", *explain},
			{"counters", *counters}, {"json", *asJSON}, {"speculation", *speculate},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "-compare prints only its comparison table; drop -%s\n", f.name)
				os.Exit(2)
			}
		}
	}

	if *list {
		for _, b := range workload.Suite() {
			fmt.Printf("%-26s input=%8.1fGB shuffle=%8.1fGB maps=%4d reduces=%3d type=%s\n",
				b.Name, b.InputSizeMB/1024, b.ShuffleSizeMB/1024, b.NumMaps, b.NumReduces, b.Type)
		}
		fmt.Println("terasort/<N>GB            synthetic sort of N GB (e.g. terasort/20GB)")
		return
	}

	var b workload.Benchmark
	var err error
	if *specPath != "" {
		b, err = workload.LoadBenchmark(*specPath)
	} else {
		b, err = lookupBenchmark(*benchName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env := experiments.Env{Seed: *seed, Backend: *tunerName}
	if *kbPath != "" {
		if env.KB, err = core.LoadOrNew(*kbPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	saveKB := func() {
		if env.KB == nil {
			return
		}
		if err := env.KB.Save(*kbPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *faultSpec != "" {
		fspec, err := faults.Load(*faultSpec)
		if err == nil {
			// Reject nodes the run's cluster does not have: the
			// 10,016-node serving cluster, or the paper testbed.
			env.FaultSpec = fspec
			err = env.CheckFaultNodes(*stream > 0, *stream == 0)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *stream > 0 {
		runStream(env, *stream, *strategy, *cells, *asJSON)
		return
	}
	if *cells {
		fmt.Fprintln(os.Stderr, "-cells requires -stream: single-job runs use the"+
			" 19-node testbed, which has no rack cells")
		os.Exit(2)
	}

	if *compare {
		compareStrategies(env, b)
		saveKB()
		return
	}
	var rec *trace.Recorder
	if *traceOut != "" || *gantt {
		rec = &trace.Recorder{}
	}
	report := runStrategy(env, b, *strategy, rec, *speculate)
	saveKB()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *gantt {
		fmt.Print(rec.Gantt(100))
		for _, st := range rec.Stats() {
			fmt.Printf("%s: map phase %.0fs, reduce tail %.0fs", st.Job, st.MapPhaseSecs(), st.ReduceTailSecs())
			if st.OOMs > 0 || st.Kills > 0 {
				fmt.Printf(" (%d OOM, %d killed)", st.OOMs, st.Kills)
			}
			fmt.Println()
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	printReport(report)
	if *counters {
		fmt.Println()
		fmt.Print(report.CountersText)
	}
	if *explain {
		if lastTuner != nil {
			fmt.Println()
			fmt.Print(lastTuner.Explain())
		} else {
			fmt.Fprintln(os.Stderr, "-explain needs -strategy conservative or aggressive")
		}
	}
}

// Report is the CLI's output document. A failed job (Failed) gave up
// after DurationSecs.
type Report struct {
	Bench        string             `json:"bench"`
	Strategy     string             `json:"strategy"`
	DurationSecs float64            `json:"duration_secs"`
	Failed       bool               `json:"failed,omitempty"`
	TestRunSecs  float64            `json:"test_run_secs,omitempty"`
	Spilled      float64            `json:"spilled_records"`
	Optimal      float64            `json:"optimal_spilled_records"`
	MapMemUtil   float64            `json:"map_mem_util"`
	MapCPUUtil   float64            `json:"map_cpu_util"`
	RedMemUtil   float64            `json:"reduce_mem_util"`
	RedCPUUtil   float64            `json:"reduce_cpu_util"`
	OOMKills     int                `json:"oom_kills"`
	Config       map[string]float64 `json:"config_overrides,omitempty"`
	CountersText string             `json:"-"`

	res mapreduce.Result // the run the report describes
}

// runStream executes the continuous-serving workload (-stream): hours
// of mixed-job arrivals on the 10,016-node cluster, on the whole-cluster
// partition or on the rack-cell partition (-cells).
func runStream(env experiments.Env, hours float64, strategy string, cells, asJSON bool) {
	if strategy != "default" && strategy != "conservative" {
		fmt.Fprintln(os.Stderr, "-stream supports -strategy default (untuned) or conservative (per-job MRONLINE tuner)")
		os.Exit(2)
	}
	spec := experiments.DefaultStreamSpec(env.Seed)
	spec.HorizonSecs = hours * 3600
	spec.Tuned = strategy == "conservative"
	if cells {
		spec.Parallel = runtime.GOMAXPROCS(0)
	}
	spec.Faults = env.FaultSpec
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res := experiments.RunStream(spec)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Jobs       int     `json:"jobs"`
			Completed  int     `json:"completed"`
			Failed     int     `json:"failed"`
			Makespan   float64 `json:"makespan_secs"`
			MeanDur    float64 `json:"mean_duration_secs"`
			Events     uint64  `json:"engine_events"`
			SinkEvents int     `json:"sink_events"`
			Cells      bool    `json:"cells"`
		}{res.Jobs, res.Completed, res.Failed, res.Makespan, res.MeanDur, res.Events, res.SinkEvents, cells}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if cells {
		fmt.Printf("rack-cell mode: %d cells\n", spec.Racks)
	}
	fmt.Print(res.Report())
	fmt.Printf("failed=%d (counted in completed)\n", res.Failed)
}

func reportFrom(b workload.Benchmark, strategy string, res mapreduce.Result, cfg mrconf.Config) Report {
	secs, ok := res.Secs()
	return Report{
		Bench:        b.Name,
		Strategy:     strategy,
		DurationSecs: secs,
		Failed:       !ok,
		Spilled:      res.Counters.SpilledRecords(),
		Optimal:      res.Counters.CombineOutputRecs,
		MapMemUtil:   res.MapMemUtil,
		MapCPUUtil:   res.MapCPUUtil,
		RedMemUtil:   res.ReduceMemUtil,
		RedCPUUtil:   res.ReduceCPUUtil,
		OOMKills:     res.Counters.OOMKills,
		Config:       cfg.Overrides(),
		CountersText: res.Counters.Summary(),
		res:          res,
	}
}

// lastTuner holds the tuner of the most recent strategy run, for -explain.
var lastTuner *core.Tuner

func runStrategy(env experiments.Env, b workload.Benchmark, strategy string, rec *trace.Recorder, speculate bool) Report {
	var spCfg *mapreduce.SpeculationConfig
	if speculate {
		spCfg = mapreduce.DefaultSpeculation()
	}
	runJob := func(cfg mrconf.Config, ctrl mapreduce.Controller) mapreduce.Result {
		return env.RunSpec(mapreduce.Spec{
			Benchmark: b, BaseConfig: cfg, Controller: ctrl, Trace: rec, Speculation: spCfg,
		})
	}
	switch strategy {
	case "default":
		res := runJob(mrconf.Default(), nil)
		return reportFrom(b, strategy, res, mrconf.Default())
	case "offline":
		prof := env.RunOne(b, mrconf.Default(), nil) // profiling run
		cfg := baseline.OfflineGuide(baseline.ProfileFromResult(prof))
		res := runJob(cfg, nil)
		return reportFrom(b, strategy, res, cfg)
	case "conservative":
		tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Conservative, Seed: env.Seed})
		res := runJob(mrconf.Default(), tuner)
		lastTuner = tuner
		return reportFrom(b, strategy, res, tuner.BestConfig())
	case "aggressive":
		tuner, test := env.AggressiveTestRun(b)
		lastTuner = tuner
		best := tuner.BestConfig()
		res := runJob(best, nil)
		r := reportFrom(b, strategy, res, best)
		r.TestRunSecs, _ = test.Secs()
		return r
	case "kb":
		var ent core.Entry
		if env.KB != nil {
			ent, _ = env.KB.Get(core.Key(b.Name, b.InputSizeMB))
		}
		if ent.Config == nil {
			fmt.Fprintf(os.Stderr, "no knowledge base configuration for %s (run -strategy aggressive -kb first)\n", b.Name)
			os.Exit(1)
		}
		cfg := *ent.Config
		res := runJob(cfg, nil)
		return reportFrom(b, strategy, res, cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", strategy)
		os.Exit(2)
		panic("unreachable")
	}
}

func lookupBenchmark(name string) (workload.Benchmark, error) {
	if b, err := workload.ByName(name); err == nil {
		return b, nil
	}
	// terasort/<N>GB shorthand
	if strings.HasPrefix(name, "terasort/") && strings.HasSuffix(name, "GB") {
		var gb int
		if _, err := fmt.Sscanf(name, "terasort/%dGB", &gb); err == nil && gb > 0 {
			return workload.Terasort(gb, 0, 0), nil
		}
	}
	return workload.Benchmark{}, fmt.Errorf("unknown benchmark %q (use -list)", name)
}

func printReport(r Report) {
	fmt.Printf("benchmark:   %s\n", r.Bench)
	fmt.Printf("strategy:    %s\n", r.Strategy)
	if r.TestRunSecs > 0 {
		fmt.Printf("test run:    %.0f s (aggressive tuning trial)\n", r.TestRunSecs)
	}
	if r.Failed {
		fmt.Printf("job time:    failed (gave up after %.0f s)\n", r.DurationSecs)
	} else {
		fmt.Printf("job time:    %.0f s\n", r.DurationSecs)
	}
	if r.Optimal > 0 {
		fmt.Printf("spills:      %.3g records (%.2fx optimal)\n", r.Spilled, r.Spilled/r.Optimal)
	}
	fmt.Printf("mem util:    map %.0f%%  reduce %.0f%%\n", r.MapMemUtil*100, r.RedMemUtil*100)
	fmt.Printf("cpu util:    map %.0f%%  reduce %.0f%%\n", r.MapCPUUtil*100, r.RedCPUUtil*100)
	if r.OOMKills > 0 {
		fmt.Printf("oom kills:   %d\n", r.OOMKills)
	}
	if len(r.Config) > 0 {
		fmt.Println("configuration overrides:")
		for _, k := range sortedKeys(r.Config) {
			fmt.Printf("  %-52s %g\n", k, r.Config[k])
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareStrategies runs every strategy on the benchmark and prints a
// side-by-side summary.
func compareStrategies(env experiments.Env, b workload.Benchmark) {
	fmt.Printf("%-14s %9s %10s %12s %10s\n", "strategy", "job time", "vs default", "spills/opt", "test run")
	var def mapreduce.Result
	for _, strat := range []string{"default", "offline", "conservative", "aggressive"} {
		r := runStrategy(env, b, strat, nil, false)
		jobTime := fmt.Sprintf("%.0fs", r.DurationSecs)
		if r.Failed {
			jobTime = "failed"
		}
		imp := ""
		if strat == "default" {
			def = r.res
		} else if g, ok := experiments.Gain(def, r.res); ok {
			imp = fmt.Sprintf("%+.0f%%", 100*g)
		}
		ratio := ""
		if r.Optimal > 0 {
			ratio = fmt.Sprintf("%.2fx", r.Spilled/r.Optimal)
		}
		test := ""
		if r.TestRunSecs > 0 {
			test = fmt.Sprintf("%.0fs", r.TestRunSecs)
		}
		fmt.Printf("%-14s %9s %10s %12s %10s\n", strat, jobTime, imp, ratio, test)
	}
}
