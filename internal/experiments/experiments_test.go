package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// The paper's shape claims are rows of Claims (claims.go), checked by
// TestClaims and, one figure or study each, by the shape tests in
// claims_test.go. The tests here check what no section of `-run all`
// builds: a second seed, a seed sweep, another cluster.

// TestGeneticBestCompletes: at seed 1000 some of the GA's trials on
// Terasort 20 GB end failed within seconds, so a GA that scores a
// trial by its give-up time picks a failed configuration. A failed
// trial scores +Inf, so the GA's best, which TestRunCounts reports, is
// a configuration whose re-run completes in the time the GA scored.
func TestGeneticBestCompletes(t *testing.T) {
	e, b := Env{Seed: 1000}, workload.Terasort(20, 0, 0)
	naive := baseline.NewGenetic(sim.NewSource(e.Seed).Stream("ga"))
	naive.Run(func(cfg mrconf.Config) float64 { return e.RunOne(b, cfg, nil).Duration }, 4)
	if naiveBest, _ := naive.Best(); !e.RunOne(b, naiveBest, nil).Failed {
		t.Fatal("scoring give-up times no longer picks a failed configuration at seed 1000; the test lost its witness")
	}

	ga := e.genetic(b, 4)
	cfg, cost := ga.Best()
	if secs, ok := e.RunOne(b, cfg, nil).Secs(); !ok || secs != cost {
		t.Fatalf("the GA's best re-runs in %v s (completed %v), the GA scored it %v s", secs, ok, cost)
	}
	if rows := e.TestRunCounts(b, 4); rows[1].BestDur != cost {
		t.Fatalf("TestRunCounts reports a GA best of %v s, the GA's best is %v s", rows[1].BestDur, cost)
	}
}

// TestGain: a gain is a measurement only when both jobs completed.
func TestGain(t *testing.T) {
	def := mapreduce.Result{Duration: 200}
	for _, tc := range []struct {
		name       string
		def, tuned mapreduce.Result
		want       float64
		ok         bool
	}{
		{"both completed", def, mapreduce.Result{Duration: 150}, 0.25, true},
		{"tuned failed", def, mapreduce.Result{Duration: 50, Failed: true}, 0.75, false},
		{"default failed", mapreduce.Result{Duration: 200, Failed: true}, mapreduce.Result{Duration: 150}, 0.25, false},
		{"zero default", mapreduce.Result{}, mapreduce.Result{Duration: 150}, 0, true},
	} {
		if got, ok := Gain(tc.def, tc.tuned); got != tc.want || ok != tc.ok {
			t.Errorf("%s: Gain = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	e := DefaultEnv()
	a := e.RunOne(workload.Terasort(10, 0, 0), mrconf.Default(), nil)
	b := e.RunOne(workload.Terasort(10, 0, 0), mrconf.Default(), nil)
	if a.Duration != b.Duration {
		t.Fatalf("same env, different durations: %v vs %v", a.Duration, b.Duration)
	}
}

func TestJobStreamImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	for _, seed := range []uint64{42, 7} {
		row := Env{Seed: seed}.JobStream(9, 30)
		if row.Jobs != 9 {
			t.Fatalf("seed %d: jobs = %d", seed, row.Jobs)
		}
		if imp := row.Improvement(); imp < 0.03 || imp > 0.45 {
			t.Fatalf("seed %d: job-stream mean completion improvement = %.0f%%, want meaningful and plausible", seed, imp*100)
		}
		if row.MakespanMron > row.MakespanDefault*1.02 {
			t.Fatalf("seed %d: makespan regressed: %.0fs vs %.0fs", seed, row.MakespanMron, row.MakespanDefault)
		}
	}
}

// holdController never lets a task launch, so the engine drains with
// the job still pending.
type holdController struct {
	mapreduce.PassthroughController
}

func (holdController) AllowLaunch(*mapreduce.Task) bool { return false }

func TestRigRunPanicsOnUndrainedJob(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "held") {
			t.Fatalf("panic %q, want one naming the job", msg)
		}
	}()
	DefaultEnv().NewRig(yarn.FIFOScheduler{}).Run(mapreduce.Spec{
		Name: "held", Benchmark: workload.Terasort(2, 0, 0),
		BaseConfig: mrconf.Default(), Controller: holdController{},
	})
	t.Fatal("Run returned with the job pending")
}

func TestSeedSweepRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	st := DefaultEnv().SeedSweep(workload.Terasort(60, 0, 0), 5)
	if st.Seeds != 5 {
		t.Fatalf("seeds = %d", st.Seeds)
	}
	// The expedited gain must be robust across seeds: always positive,
	// mean in the paper's neighborhood.
	if st.MinImp < 0.05 {
		t.Fatalf("worst-seed improvement = %.0f%%, tuning not robust", st.MinImp*100)
	}
	if st.MeanImp < 0.15 || st.MeanImp > 0.40 {
		t.Fatalf("mean improvement = %.0f%%, outside plausible band", st.MeanImp*100)
	}
	if st.StdDev > 0.12 {
		t.Fatalf("improvement stddev = %.2f, too unstable", st.StdDev)
	}
}

func TestTuningOnHeterogeneousCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	// The tuner must keep working on mixed hardware (the paper notes
	// the optimal configuration depends on the cluster): conservative
	// tuning still improves Terasort on the 12-big/6-small cluster.
	e := DefaultEnv()
	b := workload.Terasort(60, 0, 0)
	run := func(ctrl mapreduce.Controller) mapreduce.Result {
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.HeterogeneousPaperConfig())
		rm := yarn.NewResourceManager(eng, c, yarn.FIFOScheduler{})
		fs := hdfs.New(c, sim.NewSource(e.Seed).Stream("hdfs"))
		var res mapreduce.Result
		mapreduce.Submit(rm, fs, mapreduce.Spec{Benchmark: b, BaseConfig: mrconf.Default(), Controller: ctrl},
			func(r mapreduce.Result) { res = r })
		eng.Run()
		return res
	}
	def := run(nil)
	if def.Failed {
		t.Fatal(def.Err)
	}
	cons := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: e.Seed})
	tuned := run(cons)
	if tuned.Failed {
		t.Fatal(tuned.Err)
	}
	if imp, _ := Gain(def, tuned); imp < 0.05 {
		t.Fatalf("heterogeneous-cluster improvement = %.0f%%, tuner not robust to mixed hardware", imp*100)
	}
}

func TestBuildReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	var buf bytes.Buffer
	doc := DefaultEnv().NewResults(false).BuildReport()
	if err := doc.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 13") || !strings.Contains(out, "<svg") {
		t.Fatal("report missing expected content")
	}
	if strings.Count(out, "<svg") < 12 {
		t.Fatalf("only %d charts rendered", strings.Count(out, "<svg"))
	}
}

// seedSweepConservative mirrors SeedSweep for the fast-single-run use
// case: the conservative tuner attached to one run, across seeds.
func (e Env) seedSweepConservative(b workload.Benchmark, seeds int) SweepStat {
	return e.sweep(seeds, func(sub Env) (def, tuned mapreduce.Result) {
		def = sub.RunOne(b, mrconf.Default(), nil)
		tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Conservative, Seed: sub.Seed})
		return def, sub.RunOne(b, mrconf.Default(), tuner)
	})
}

func TestSeedSweepConservativeRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	st := DefaultEnv().seedSweepConservative(workload.Terasort(60, 0, 0), 5)
	if st.MinImp < 0.03 {
		t.Fatalf("worst-seed conservative improvement = %.0f%%", st.MinImp*100)
	}
	if st.MeanImp < 0.10 || st.MeanImp > 0.35 {
		t.Fatalf("mean conservative improvement = %.0f%%, outside band", st.MeanImp*100)
	}
}

// TestParallelForRaisesLowestPanic: a panic in a worker reaches the
// caller, which can recover it, and when several indices panic the
// caller sees the lowest one's, as a serial loop would raise it.
func TestParallelForRaisesLowestPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ran := make([]bool, 16)
	func() {
		defer func() {
			if r := recover(); r != "index 3" {
				t.Errorf("recovered %v, want index 3's panic", r)
			}
		}()
		parallelFor(len(ran), 4, func(i int) {
			ran[i] = true
			if i == 3 || i == 5 {
				panic(fmt.Sprintf("index %d", i))
			}
		})
		t.Error("parallelFor returned normally past a panicking index")
	}()
	for i := 0; i < 3; i++ {
		if !ran[i] {
			t.Errorf("index %d, below the panicking index, did not run", i)
		}
	}
}
