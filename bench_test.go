// Package repro's root benchmark suite regenerates every table and
// figure of the MRONLINE paper (HPDC'14) as a testing.B benchmark,
// reporting the paper's metrics via b.ReportMetric:
//
//	go test -bench=. -benchmem
//
// Conventions: *_s metrics are simulated job-execution seconds,
// imp_pct is MRONLINE's improvement over the default configuration in
// percent, spill ratios are relative to the optimal (combiner output)
// record count. One iteration = one full regeneration of the artifact.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func env() experiments.Env { return experiments.Env{Seed: 42} }

// BenchmarkTable2Parameters walks the Table 2 registry (sanity-scale
// benchmark: configuration handling must stay cheap since every task
// materializes configs).
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mrconf.Default()
		for _, p := range mrconf.Params() {
			cfg = cfg.With(p.Name, p.Default)
			_ = cfg.Get(p.Name)
		}
		if err := mrconf.Validate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Characteristics regenerates the Table 3 data volumes
// by running the full suite under the default configuration.
func BenchmarkTable3Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := env().Table3()
		if len(rows) != 10 {
			b.Fatalf("suite rows = %d", len(rows))
		}
		b.ReportMetric(rows[8].MeasShuffleMB/1024, "terasort_shuffle_GB")
	}
}

func reportExpedited(b *testing.B, rows []experiments.ExpeditedRow) {
	b.Helper()
	var impSum float64
	for _, r := range rows {
		impSum += r.Improvement()
	}
	b.ReportMetric(rows[0].DefaultDur, "default_s")
	b.ReportMetric(rows[0].MronlineDur, "mronline_s")
	b.ReportMetric(100*impSum/float64(len(rows)), "imp_pct")
}

// BenchmarkFig4ExpeditedTerasort: Terasort 100 GB, default vs offline
// guide vs MRONLINE (expedited test runs use case).
func BenchmarkFig4ExpeditedTerasort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportExpedited(b, env().Fig4())
	}
}

// BenchmarkFig5ExpeditedWikipedia: the four Wikipedia applications.
func BenchmarkFig5ExpeditedWikipedia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportExpedited(b, env().Fig5())
	}
}

// BenchmarkFig6ExpeditedFreebase: the four Freebase applications.
func BenchmarkFig6ExpeditedFreebase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportExpedited(b, env().Fig6())
	}
}

func reportSpills(b *testing.B, rows []experiments.ExpeditedRow) {
	b.Helper()
	var defR, mroR float64
	for _, r := range rows {
		defR += r.DefaultSpills / r.OptimalSpills
		mroR += r.MronlineSpills / r.OptimalSpills
	}
	n := float64(len(rows))
	b.ReportMetric(defR/n, "default_vs_optimal")
	b.ReportMetric(mroR/n, "mronline_vs_optimal")
}

// BenchmarkFig7SpillTerasort: spilled records, Terasort.
func BenchmarkFig7SpillTerasort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpills(b, env().Fig4())
	}
}

// BenchmarkFig8SpillWikipedia: spilled records, Wikipedia apps.
func BenchmarkFig8SpillWikipedia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpills(b, env().Fig5())
	}
}

// BenchmarkFig9SpillFreebase: spilled records, Freebase apps.
func BenchmarkFig9SpillFreebase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpills(b, env().Fig6())
	}
}

func reportSingleRun(b *testing.B, rows []experiments.SingleRunRow) {
	b.Helper()
	var impSum float64
	for _, r := range rows {
		impSum += r.Improvement()
	}
	b.ReportMetric(rows[0].DefaultDur, "default_s")
	b.ReportMetric(rows[0].MronlineDur, "mronline_s")
	b.ReportMetric(100*impSum/float64(len(rows)), "imp_pct")
}

// BenchmarkFig10SingleRunTerasort: fast single run, Terasort.
func BenchmarkFig10SingleRunTerasort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSingleRun(b, env().Fig10())
	}
}

// BenchmarkFig11SingleRunWikipedia: fast single run, Wikipedia apps.
func BenchmarkFig11SingleRunWikipedia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSingleRun(b, env().Fig11())
	}
}

// BenchmarkFig12SingleRunFreebase: fast single run, Freebase apps.
func BenchmarkFig12SingleRunFreebase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSingleRun(b, env().Fig12())
	}
}

// BenchmarkFig13JobSize: the Terasort 2-100 GB sweep.
func BenchmarkFig13JobSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := env().Fig13()
		b.ReportMetric(100*rows[0].Improvement(), "imp2GB_pct")
		b.ReportMetric(100*rows[3].Improvement(), "imp20GB_pct")
		b.ReportMetric(100*rows[5].Improvement(), "imp100GB_pct")
	}
}

// BenchmarkFig14MultiTenant: Terasort + BBP execution times under
// fair-share co-location.
func BenchmarkFig14MultiTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mt := env().MultiTenant()
		tsImp := (mt.Default.Terasort.Duration - mt.Mronline.Terasort.Duration) / mt.Default.Terasort.Duration
		bbpImp := (mt.Default.BBP.Duration - mt.Mronline.BBP.Duration) / mt.Default.BBP.Duration
		b.ReportMetric(100*tsImp, "terasort_imp_pct")
		b.ReportMetric(100*bbpImp, "bbp_imp_pct")
	}
}

// BenchmarkFig15MemoryUtilization: multi-tenant memory utilization.
func BenchmarkFig15MemoryUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mt := env().MultiTenant()
		b.ReportMetric(100*mt.Default.Terasort.MapMemUtil, "default_tsmap_pct")
		b.ReportMetric(100*mt.Mronline.Terasort.MapMemUtil, "mronline_tsmap_pct")
		b.ReportMetric(100*mt.Mronline.BBP.MapMemUtil, "mronline_bbpmap_pct")
	}
}

// BenchmarkFig16CPUUtilization: multi-tenant CPU utilization.
func BenchmarkFig16CPUUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mt := env().MultiTenant()
		b.ReportMetric(100*mt.Default.BBP.MapCPUUtil, "default_bbpmap_pct")
		b.ReportMetric(100*mt.Mronline.BBP.MapCPUUtil, "mronline_bbpmap_pct")
	}
}

// BenchmarkTestRunCount: MRONLINE's single test run vs the
// Gunther-style GA's dozens (paper §7).
func BenchmarkTestRunCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := env().TestRunCounts(workload.Terasort(20, 0, 0), 4)
		b.ReportMetric(float64(rows[0].Runs), "mronline_runs")
		b.ReportMetric(float64(rows[1].Runs), "ga_runs")
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationGrayBoxVsBlackBox compares the full gray-box tuner
// (rules + bound tightening, 4-5 search dims per scope) against pure
// black-box smart hill climbing over all 13 parameters, measured by
// the quality of the configuration each finds in one test run.
func BenchmarkAblationGrayBoxVsBlackBox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := env()
		bench := workload.Terasort(100, 752, 200)

		grayTuner, _ := e.AggressiveTestRun(bench)
		gray := e.RunOne(bench, grayTuner.BestConfig(), nil).Duration

		blackTuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, BlackBox: true})
		e.RunOne(bench, mrconf.Default(), blackTuner)
		black := e.RunOne(bench, blackTuner.BestConfig(), nil).Duration

		b.ReportMetric(gray, "graybox_tuned_s")
		b.ReportMetric(black, "blackbox_tuned_s")
	}
}

// BenchmarkAblationConservativeWaveSize measures sensitivity of the
// fast-single-run gains to how quickly the rules react (the
// conservative recompute cadence is fixed; this tracks the achieved
// improvement so regressions in rule quality show up).
func BenchmarkAblationConservativeRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := env().SingleRun(workload.Terasort(60, 0, 0))
		b.ReportMetric(100*row.Improvement(), "imp_pct")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: one full
// default Terasort 100 GB job (752 maps, 200 reduces, ~9k events).
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench := workload.Terasort(100, 752, 200)
	for i := 0; i < b.N; i++ {
		res := env().RunOne(bench, mrconf.Default(), nil)
		if res.Failed {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkHotSpotAvoidance: job time on a cluster with 4 interfered
// nodes, blind vs utilization-aware placement (extension of the §1
// hot-spot claim).
func BenchmarkHotSpotAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := env().HotSpotStudy(4)
		b.ReportMetric(r.DefaultDur, "blind_s")
		b.ReportMetric(r.AvoidDur, "avoiding_s")
		b.ReportMetric(r.CleanDur, "clean_s")
	}
}

// BenchmarkStragglerMitigation: mid-job hot spots handled by nothing,
// speculative execution, hot-spot avoidance, or both.
func BenchmarkStragglerMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := env().StragglerStudy(3)
		b.ReportMetric(r.NoneDur, "none_s")
		b.ReportMetric(r.SpeculationDur, "speculation_s")
		b.ReportMetric(r.AvoidanceDur, "avoidance_s")
		b.ReportMetric(r.BothDur, "both_s")
	}
}

// BenchmarkAmortization: cumulative time over 8 repeat runs under the
// three policies (never tune / test run + knowledge base /
// conservative every run).
func BenchmarkAmortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := env().Amortization(workload.Terasort(60, 0, 0), 8)
		last := rows[len(rows)-1]
		b.ReportMetric(last.CumulativeDefault, "default8_s")
		b.ReportMetric(last.CumulativeMronline, "kb8_s")
		b.ReportMetric(last.CumulativeConserv, "conservative8_s")
	}
}

// BenchmarkAblationLHSSampling: the aggressive tuner with Latin
// hypercube sampling vs independent uniform sampling, by quality of
// the configuration found in one test run (the §5 LHS design choice).
func BenchmarkAblationLHSSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := env()
		bench := workload.Terasort(100, 752, 200)

		lhsTuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed})
		e.RunOne(bench, mrconf.Default(), lhsTuner)
		lhsDur := e.RunOne(bench, lhsTuner.BestConfig(), nil).Duration

		sp := tuner.DefaultSearchParams()
		sp.PlainRandom = true
		randTuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, Search: sp})
		e.RunOne(bench, mrconf.Default(), randTuner)
		randDur := e.RunOne(bench, randTuner.BestConfig(), nil).Duration

		b.ReportMetric(lhsDur, "lhs_tuned_s")
		b.ReportMetric(randDur, "random_tuned_s")
	}
}

// BenchmarkJobStream: nine mixed jobs arriving over time under fair
// share, with conservative tuning attached to every job.
func BenchmarkJobStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := env().JobStream(9, 30)
		b.ReportMetric(row.MeanDefault, "mean_default_s")
		b.ReportMetric(row.MeanMronline, "mean_mronline_s")
		b.ReportMetric(100*row.Improvement(), "imp_pct")
	}
}

// BenchmarkAblationCostTerms drops each Eq. 1 term in turn and reports
// the quality of the configuration found in one test run — the
// contribution of each cost component (memory, CPU, spills, time).
func BenchmarkAblationCostTerms(b *testing.B) {
	bench := workload.Terasort(100, 752, 200)
	variants := []struct {
		name string
		w    core.CostWeights
	}{
		{"full_s", core.UnitWeights},
		{"no_mem_s", core.CostWeights{0, 1, 1, 1}},
		{"no_cpu_s", core.CostWeights{1, 0, 1, 1}},
		{"no_spill_s", core.CostWeights{1, 1, 0, 1}},
		{"no_time_s", core.CostWeights{1, 1, 1, 0}},
	}
	for i := 0; i < b.N; i++ {
		e := env()
		for _, v := range variants {
			tuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
				core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, CostWeights: v.w})
			e.RunOne(bench, mrconf.Default(), tuner)
			dur := e.RunOne(bench, tuner.BestConfig(), nil).Duration
			b.ReportMetric(dur, v.name)
		}
	}
}

// BenchmarkSeedSweep: run-to-run variance of the expedited gain on
// Terasort 60 GB across 5 seeds.
func BenchmarkSeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := env().SeedSweep(workload.Terasort(60, 0, 0), 5)
		b.ReportMetric(100*st.MeanImp, "mean_imp_pct")
		b.ReportMetric(100*st.MinImp, "min_imp_pct")
		b.ReportMetric(100*st.StdDev, "stddev_pct")
	}
}

// BenchmarkAblationWaveSize varies the global LHS wave size m (the
// paper uses 24) and reports the tuned-run quality: smaller waves
// converge with fewer tasks but sample the space more thinly.
func BenchmarkAblationWaveSize(b *testing.B) {
	bench := workload.Terasort(100, 752, 200)
	for i := 0; i < b.N; i++ {
		e := env()
		for _, m := range []int{12, 24, 48} {
			sp := tuner.DefaultSearchParams()
			sp.M = m
			sp.N = m * 2 / 3
			tn := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
				core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, Search: sp})
			e.RunOne(bench, mrconf.Default(), tn)
			dur := e.RunOne(bench, tn.BestConfig(), nil).Duration
			b.ReportMetric(dur, fmt.Sprintf("m%d_s", m))
		}
	}
}

// BenchmarkStreamDay is the fleet-scale serving acceptance benchmark:
// one simulated day of mixed-class jobs (Poisson arrivals at 875/hour
// mean with a ±50% diurnal swing — about 21k jobs) against a shared
// 10,016-node cluster under fair scheduling, traced into the
// flat-memory aggregating stats sink. One iteration = the whole day,
// so the -benchmem figures are day totals: on the optimized serving
// path (object pools, dense copy-on-write configs, flow/block recycling,
// streaming sinks) allocations stay flat per job rather than growing
// per event, and the day completes in single-digit wall seconds.
func BenchmarkStreamDay(b *testing.B) {
	benchmarkStreamDay(b, false)
}

// BenchmarkStreamDayCells is the same simulated day on the rack-cell
// partition: each rack is a self-contained cell (scoped RM,
// single-rack namenode, rack-local fabric, private sink), all on the
// one event engine.
func BenchmarkStreamDayCells(b *testing.B) {
	benchmarkStreamDay(b, true)
}

// BenchmarkTunerBackends races the optimizer backends through one
// aggressive expedited test run each on a full-size Table 3 app, then
// re-runs the recommendation standalone. The metrics mirror the
// tournament's clean leg: search evaluations and waves spent, the
// test-run overhead, and the tuned job time it bought.
func BenchmarkTunerBackends(b *testing.B) {
	app, err := workload.ByName("wordcount/Wikipedia")
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range tuner.Backends() {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := experiments.Env{Seed: 42, Backend: backend}
				tn, test := e.AggressiveTestRun(app)
				tuned := e.RunOne(app, tn.BestConfig(), nil)
				mt, rt := tn.Trajectories()
				mw, rw := tn.TestWaves()
				b.ReportMetric(test.Duration, "test_run_s")
				b.ReportMetric(tuned.Duration, "tuned_s")
				b.ReportMetric(float64(len(mt)+len(rt)), "evals")
				b.ReportMetric(float64(mw+rw), "waves")
			}
		})
	}
}

func benchmarkStreamDay(b *testing.B, cells bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := experiments.DefaultStreamSpec(7)
		if cells {
			spec.Parallel = 1
		}
		start := time.Now()
		res := experiments.RunStream(spec)
		wall := time.Since(start).Seconds()
		if res.Completed != res.Jobs || res.Jobs < 20000 {
			b.Fatalf("stream day: %d submitted, %d completed (want >=20000, equal)", res.Jobs, res.Completed)
		}
		if res.SinkEvents != res.Stats.EventCount() {
			b.Fatalf("sink ingested %d events, result says %d", res.Stats.EventCount(), res.SinkEvents)
		}
		b.ReportMetric(float64(res.Jobs), "jobs")
		b.ReportMetric(float64(res.Jobs)/wall, "jobs/sec")
		b.ReportMetric(float64(res.Events)/float64(res.Jobs), "events/job")
	}
}
