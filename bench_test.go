// Package repro's root benchmark suite regenerates every section of
// the MRONLINE paper (HPDC'14) as a sub-benchmark of BenchmarkSections,
// reporting each claim the section feeds via b.ReportMetric, plus the
// ablations and the serving day:
//
//	go test -bench=. -benchmem
//
// Conventions: a section's metrics are its claims' values, with the
// claim ID as the unit (see experiments.Claims); *_s metrics are
// simulated job-execution seconds. One iteration = one full
// regeneration of the artifact.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func env() experiments.Env { return experiments.Env{Seed: 42} }

// secs is res's job time, failing b when the job failed: a failed job's
// time is the time it gave up, not a measurement.
func secs(b *testing.B, res mapreduce.Result) float64 {
	b.Helper()
	s, ok := res.Secs()
	if !ok {
		b.Fatalf("%s failed: %v", res.JobName, res.Err)
	}
	return s
}

// BenchmarkSections regenerates each section of `mrexperiments -run
// all` from fresh results, one sub-benchmark per section, and reports
// the value of every claim the section feeds, with the claim's ID as
// the unit.
func BenchmarkSections(b *testing.B) {
	for _, s := range experiments.Sections() {
		if s.NotInAll {
			continue
		}
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := env().NewResults(false)
				s.Print(io.Discard, r)
				for _, c := range s.Claims() {
					b.ReportMetric(c.Value(r), c.ID)
				}
			}
		})
	}
}

// BenchmarkTable2Parameters walks the Table 2 registry (sanity-scale
// benchmark: configuration handling must stay cheap since every task
// materializes configs).
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mrconf.Default()
		for _, p := range mrconf.Params() {
			cfg = cfg.With(p.ID, p.Default)
			_ = cfg.Get(p.ID)
		}
		if err := mrconf.Validate(cfg); err != nil {
			b.Fatal(err)
		}
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
		gray := secs(b, e.RunOne(bench, grayTuner.BestConfig(), nil))

		blackTuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, BlackBox: true})
		e.RunOne(bench, mrconf.Default(), blackTuner)
		black := secs(b, e.RunOne(bench, blackTuner.BestConfig(), nil))

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
		lhsDur := secs(b, e.RunOne(bench, lhsTuner.BestConfig(), nil))

		sp := tuner.DefaultSearchParams()
		sp.PlainRandom = true
		randTuner := core.NewTuner(bench.Name, bench.NumMaps, bench.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, Search: sp})
		e.RunOne(bench, mrconf.Default(), randTuner)
		randDur := secs(b, e.RunOne(bench, randTuner.BestConfig(), nil))

		b.ReportMetric(lhsDur, "lhs_tuned_s")
		b.ReportMetric(randDur, "random_tuned_s")
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
			b.ReportMetric(secs(b, e.RunOne(bench, tuner.BestConfig(), nil)), v.name)
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
			b.ReportMetric(secs(b, e.RunOne(bench, tn.BestConfig(), nil)), fmt.Sprintf("m%d_s", m))
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
// partition: each rack is a self-contained cell (a one-rack cluster
// with its own engine, RM, namenode and sink), the cells spread over
// GOMAXPROCS workers.
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
				b.ReportMetric(secs(b, test), "test_run_s")
				b.ReportMetric(secs(b, tuned), "tuned_s")
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
			spec.Parallel = runtime.GOMAXPROCS(0)
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
