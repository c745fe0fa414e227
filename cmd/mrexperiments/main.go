// Command mrexperiments regenerates the tables and figures of the
// MRONLINE paper (HPDC'14) on the simulated 19-node cluster.
//
// Usage:
//
//	mrexperiments -run all
//	mrexperiments -run fig4,fig13 -seed 7
//
// Artifacts: table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig13 fig14 fig15 fig16 testruns hotspot straggler
// amortization stream faults tournament
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated artifact ids, or 'all'")
		seed       = flag.Uint64("seed", 42, "simulation seed")
		htmlPath   = flag.String("html", "", "write a self-contained HTML report (runs everything)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		faultSpec  = flag.String("faults", "", "inject faults from this JSON spec into every run (see examples/faults/)")
		tunerName  = flag.String("tuner", "hill", "optimizer backend for aggressive tuning runs: "+strings.Join(tuner.Backends(), "|"))
		kbPath     = flag.String("kb", "", "knowledge base JSON file: aggressive test runs warm-start from it, and it is saved after the run")
		cells      = flag.Bool("cells", false, "run the continuous-serving legs on the rack-cell partition (one cell per rack)")
	)
	flag.Parse()

	if err := validBackend(*tunerName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	all := []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "testruns",
		"hotspot", "straggler", "amortization", "stream", "faults", "tournament"}
	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = all
	}
	for _, id := range ids {
		if !slices.Contains(all, id) {
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", id)
			os.Exit(2)
		}
	}
	if *cells && (*htmlPath != "" || !slices.Contains(ids, "stream")) {
		fmt.Fprintln(os.Stderr, "-cells applies only to the continuous-serving legs of -run stream")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	env := experiments.Env{Seed: *seed, Backend: *tunerName}
	if *kbPath != "" {
		kb, err := core.LoadOrNew(*kbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		env.KB = kb
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
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		env.FaultSpec = fspec
	}
	if *htmlPath != "" {
		checkFaultNodes(env, false, true)
		f, err := os.Create(*htmlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := env.BuildReport().RenderHTML(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *htmlPath)
		saveKB()
		return
	}
	// Expedited results back Figs 4-9; compute each set once.
	var exp4, exp5, exp6 []experiments.ExpeditedRow
	need := func(id string) bool { return slices.Contains(ids, id) }
	testbed := false
	for _, id := range ids {
		testbed = testbed || (id != "table2" && id != "table3" && id != "stream")
	}
	checkFaultNodes(env, need("stream"), testbed)
	if need("fig4") || need("fig7") {
		exp4 = env.Fig4()
	}
	if need("fig5") || need("fig8") {
		exp5 = env.Fig5()
	}
	if need("fig6") || need("fig9") {
		exp6 = env.Fig6()
	}
	var mt *experiments.MultiTenantResult
	if need("fig14") || need("fig15") || need("fig16") {
		m := env.MultiTenant()
		mt = &m
	}

	for _, id := range ids {
		switch id {
		case "table2":
			table2()
		case "table3":
			table3(env)
		case "fig4":
			expedited("Figure 4: Terasort, expedited test runs use case", exp4)
		case "fig5":
			expedited("Figure 5: Wikipedia apps, expedited test runs use case", exp5)
		case "fig6":
			expedited("Figure 6: Freebase apps, expedited test runs use case", exp6)
		case "fig7":
			spills("Figure 7: Terasort spilled records", exp4)
		case "fig8":
			spills("Figure 8: Wikipedia apps spilled records", exp5)
		case "fig9":
			spills("Figure 9: Freebase apps spilled records", exp6)
		case "fig10":
			singleRun("Figure 10: Terasort, fast single run use case", env.Fig10())
		case "fig11":
			singleRun("Figure 11: Wikipedia apps, fast single run use case", env.Fig11())
		case "fig12":
			singleRun("Figure 12: Freebase apps, fast single run use case", env.Fig12())
		case "fig13":
			jobSize(env.Fig13())
		case "fig14":
			fig14(mt)
		case "fig15":
			fig15(mt)
		case "fig16":
			fig16(mt)
		case "testruns":
			testRuns(env)
		case "hotspot":
			hotspot(env)
		case "straggler":
			straggler(env)
		case "amortization":
			amortization(env)
		case "stream":
			stream(env, *cells)
		case "faults":
			faultRecovery(env)
		case "tournament":
			tournament(env)
		}
	}
	saveKB()
}

// checkFaultNodes exits 2 unless every node the -faults spec names
// exists on each cluster it will be armed on: the 10,016-node serving
// cluster of the stream artifact, and the paper testbed of every job
// artifact.
func checkFaultNodes(env experiments.Env, stream, testbed bool) {
	if err := env.CheckFaultNodes(stream, testbed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// validBackend fails fast on an unknown -tuner value, listing what is
// actually registered.
func validBackend(name string) error {
	for _, b := range tuner.Backends() {
		if b == name {
			return nil
		}
	}
	return fmt.Errorf("unknown -tuner backend %q (registered: %s)",
		name, strings.Join(tuner.Backends(), ", "))
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func table2() {
	header("Table 2: key configuration parameters and defaults")
	fmt.Printf("%-52s %10s %8s %8s %12s %s\n", "parameter", "default", "min", "max", "category", "scope")
	for _, p := range mrconf.Params() {
		fmt.Printf("%-52s %10g %8g %8g %12s %s\n", p.Name, p.Default, p.Min, p.Max, p.Category, p.Scope)
	}
}

func table3(env experiments.Env) {
	header("Table 3: benchmark characteristics (table vs measured)")
	fmt.Printf("%-26s %9s %9s %9s | %9s %9s %5s %4s %s\n",
		"benchmark", "input", "shuffle", "output", "meas shfl", "meas out", "maps", "red", "type")
	for _, r := range env.Table3() {
		fmt.Printf("%-26s %8.1fG %8.1fG %8.1fG | %8.1fG %8.1fG %5d %4d %s\n",
			r.Bench, r.InputMB/1024, r.ShuffleMB/1024, r.OutputMB/1024,
			r.MeasShuffleMB/1024, r.MeasOutputMB/1024, r.Maps, r.Reduces, r.JobType)
	}
}

func expedited(title string, rows []experiments.ExpeditedRow) {
	header(title)
	fmt.Printf("%-26s %9s %9s %9s %9s %12s\n", "benchmark", "default", "offline", "MRONLINE", "test run", "improvement")
	for _, r := range rows {
		fmt.Printf("%-26s %8.0fs %8.0fs %8.0fs %8.0fs %11.0f%%\n",
			r.Bench, r.DefaultDur, r.OfflineDur, r.MronlineDur, r.TestRunDur, 100*r.Improvement())
	}
}

func spills(title string, rows []experiments.ExpeditedRow) {
	header(title)
	fmt.Printf("%-26s %10s %10s %10s %10s\n", "benchmark", "optimal", "default", "offline", "MRONLINE")
	for _, r := range rows {
		fmt.Printf("%-26s %10.2e %10.2e %10.2e %10.2e\n",
			r.Bench, r.OptimalSpills, r.DefaultSpills, r.OfflineSpills, r.MronlineSpills)
	}
}

func singleRun(title string, rows []experiments.SingleRunRow) {
	header(title)
	fmt.Printf("%-26s %9s %9s %12s\n", "benchmark", "default", "MRONLINE", "improvement")
	for _, r := range rows {
		fmt.Printf("%-26s %8.0fs %8.0fs %11.0f%%\n", r.Bench, r.DefaultDur, r.MronlineDur, 100*r.Improvement())
	}
}

func jobSize(rows []experiments.JobSizeRow) {
	header("Figure 13: Terasort job-size study")
	fmt.Printf("%6s %5s %5s %9s %9s %12s\n", "size", "maps", "red", "default", "MRONLINE", "improvement")
	for _, r := range rows {
		fmt.Printf("%4dGB %5d %5d %8.0fs %8.0fs %11.0f%%\n",
			r.SizeGB, r.Maps, r.Reduces, r.DefaultDur, r.MronlineDur, 100*r.Improvement())
	}
}

func fig14(mt *experiments.MultiTenantResult) {
	header("Figure 14: multi-tenant job execution time (Terasort 60GB + BBP, fair share)")
	fmt.Printf("%-10s %9s %9s %12s\n", "app", "default", "MRONLINE", "improvement")
	fmt.Printf("%-10s %8.0fs %8.0fs %11.0f%%\n", "Terasort",
		mt.Default.Terasort.Duration, mt.Mronline.Terasort.Duration,
		100*(mt.Default.Terasort.Duration-mt.Mronline.Terasort.Duration)/mt.Default.Terasort.Duration)
	fmt.Printf("%-10s %8.0fs %8.0fs %11.0f%%\n", "BBP",
		mt.Default.BBP.Duration, mt.Mronline.BBP.Duration,
		100*(mt.Default.BBP.Duration-mt.Mronline.BBP.Duration)/mt.Default.BBP.Duration)
	fmt.Printf("Terasort spilled records: %.2e -> %.2e\n",
		mt.Default.Terasort.Counters.SpilledRecords(), mt.Mronline.Terasort.Counters.SpilledRecords())
}

func fig15(mt *experiments.MultiTenantResult) {
	header("Figure 15: multi-tenant memory utilization")
	utilRows(mt, func(r experiments.MultiTenantRun) [4]float64 {
		return [4]float64{r.Terasort.MapMemUtil, r.Terasort.ReduceMemUtil, r.BBP.MapMemUtil, r.BBP.ReduceMemUtil}
	})
}

func fig16(mt *experiments.MultiTenantResult) {
	header("Figure 16: multi-tenant CPU utilization")
	utilRows(mt, func(r experiments.MultiTenantRun) [4]float64 {
		return [4]float64{r.Terasort.MapCPUUtil, r.Terasort.ReduceCPUUtil, r.BBP.MapCPUUtil, r.BBP.ReduceCPUUtil}
	})
}

func utilRows(mt *experiments.MultiTenantResult, pick func(experiments.MultiTenantRun) [4]float64) {
	labels := [4]string{"Terasort-m", "Terasort-r", "BBP-m", "BBP-r"}
	def := pick(mt.Default)
	mro := pick(mt.Mronline)
	fmt.Printf("%-12s %9s %9s\n", "container", "default", "MRONLINE")
	for i, l := range labels {
		fmt.Printf("%-12s %8.0f%% %8.0f%%\n", l, def[i]*100, mro[i]*100)
	}
}

func hotspot(env experiments.Env) {
	header("Extension: hot-spot avoidance (4 interfered nodes, Terasort 20GB)")
	r := env.HotSpotStudy(4)
	fmt.Printf("%-22s %9s\n", "placement", "job time")
	fmt.Printf("%-22s %8.0fs\n", "clean cluster", r.CleanDur)
	fmt.Printf("%-22s %8.0fs\n", "hot, blind", r.DefaultDur)
	fmt.Printf("%-22s %8.0fs (%.0f%% vs blind)\n", "hot, avoiding", r.AvoidDur, 100*r.Improvement())
}

func straggler(env experiments.Env) {
	header("Extension: straggler mitigation (interference arrives mid-job)")
	r := env.StragglerStudy(3)
	fmt.Printf("%-22s %9s\n", "mitigation", "job time")
	fmt.Printf("%-22s %8.0fs\n", "none", r.NoneDur)
	fmt.Printf("%-22s %8.0fs (%d launched, %d won)\n", "speculation", r.SpeculationDur, r.SpecLaunches, r.SpecWins)
	fmt.Printf("%-22s %8.0fs\n", "hot-spot avoidance", r.AvoidanceDur)
	fmt.Printf("%-22s %8.0fs\n", "both", r.BothDur)
}

func amortization(env experiments.Env) {
	header("Extension: knowledge-base amortization (Terasort 60GB, 8 runs)")
	rows := env.Amortization(workload.Terasort(60, 0, 0), 8)
	fmt.Printf("%5s %12s %12s %14s\n", "runs", "default", "MRONLINE+KB", "conservative")
	for _, r := range rows {
		fmt.Printf("%5d %11.0fs %11.0fs %13.0fs\n",
			r.Runs, r.CumulativeDefault, r.CumulativeMronline, r.CumulativeConserv)
	}
}

func stream(env experiments.Env, cells bool) {
	header("Extension: multi-job arrival stream (9 mixed jobs, fair share)")
	r := env.JobStream(9, 30)
	fmt.Printf("mean completion: default %.0fs -> MRONLINE %.0fs (%.0f%%)\n",
		r.MeanDefault, r.MeanMronline, 100*r.Improvement())
	fmt.Printf("makespan:        default %.0fs -> MRONLINE %.0fs\n",
		r.MakespanDefault, r.MakespanMron)

	header("Extension: continuous serving (1h stream, 10,016 nodes, fair share)")
	spec := experiments.DefaultStreamSpec(env.Seed)
	spec.HorizonSecs = 3600
	spec.Faults = env.FaultSpec
	if cells {
		spec.Parallel = runtime.GOMAXPROCS(0)
		fmt.Printf("rack-cell mode: %d cells\n", spec.Racks)
	}
	fmt.Printf("%-10s %6s %10s %9s %9s %9s\n",
		"leg", "jobs", "makespan", "mean", "p99~", "max")
	var defStats *trace.StatsSink
	for _, leg := range []struct {
		name  string
		tuned bool
	}{{"default", false}, {"MRONLINE", true}} {
		spec.Tuned = leg.tuned
		res := experiments.RunStream(spec)
		all := res.Stats.Overall()
		fmt.Printf("%-10s %6d %9.0fs %8.1fs %8.1fs %8.1fs\n",
			leg.name, res.Jobs, res.Makespan, all.MeanDuration(),
			all.ApproxPercentile(99), all.DurMax)
		if !leg.tuned {
			defStats = res.Stats
		}
	}
	fmt.Println("\nper-class latency (default leg):")
	defStats.WriteSummary(os.Stdout)
}

func faultRecovery(env experiments.Env) {
	header("Extension: failure recovery under tuning (Terasort 20GB, mid-job node crash)")
	rows := env.FaultRecovery()
	fmt.Printf("%-18s %9s %7s %8s %8s %8s %8s\n",
		"leg", "job time", "failed", "killed", "reexec", "lost", "rerepl")
	for _, r := range rows {
		fmt.Printf("%-18s %8.0fs %7v %8d %8d %8d %8d\n",
			r.Leg, r.Duration, r.Failed, r.NodeLossKills, r.MapsReExecuted,
			r.Faults.ContainersLost, r.Faults.BlocksReReplicated)
	}
}

func tournament(env experiments.Env) {
	header("Extension: optimizer backend tournament (Table 3 apps x " +
		strings.Join(tuner.Backends(), "/") + ", crash churn, warm restart)")
	rows := env.Tournament(experiments.DefaultTournamentSpec())
	fmt.Printf("%-26s %-7s %6s %6s %9s %9s %9s %8s | %9s %9s %6s | %5s %5s %9s\n",
		"benchmark", "backend", "evals", "waves", "test run", "tuned", "cost", "to15%",
		"churn tst", "churn tun", "failed", "coldW", "warmW", "warm tst")
	for _, r := range rows {
		fmt.Printf("%-26s %-7s %6d %6d %8.0fs %8.0fs %9.3f %8d | %8.0fs %8.0fs %6v | %5d %5d %8.0fs\n",
			r.Bench, r.Backend, r.Evals, r.Waves, r.TestRunDur, r.TunedDur, r.FinalCost,
			r.TestsTo15, r.ChurnTestDur, r.ChurnTunedDur, r.ChurnFailed,
			r.ColdWaves, r.WarmWaves, r.WarmDur)
	}
}

func testRuns(env experiments.Env) {
	header("Test-run count to a tuned configuration (paper §7)")
	rows := env.TestRunCounts(workload.Terasort(20, 0, 0), 4)
	fmt.Printf("%-24s %6s %10s\n", "approach", "runs", "job time")
	for _, r := range rows {
		fmt.Printf("%-24s %6d %9.0fs\n", r.Approach, r.Runs, r.BestDur)
	}
}
