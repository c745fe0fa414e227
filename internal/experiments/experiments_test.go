package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// The tests in this file assert the *shape* of each reproduced figure:
// who wins, in which direction, and roughly by how much — the criteria
// the reproduction targets (absolute seconds differ from the authors'
// physical testbed).

func TestFig4TerasortShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := DefaultEnv().Fig4()[0]
	if imp := r.Improvement(); imp < 0.10 || imp > 0.45 {
		t.Fatalf("Terasort expedited improvement = %.0f%%, paper ~23%%", imp*100)
	}
	// MRONLINE quality ≈ offline-guide quality (§8.2).
	if math.Abs(r.MronlineDur-r.OfflineDur)/r.OfflineDur > 0.25 {
		t.Fatalf("MRONLINE (%.0fs) far from offline guide (%.0fs)", r.MronlineDur, r.OfflineDur)
	}
}

func TestFig7SpillShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := DefaultEnv().Fig4()[0]
	defRatio := r.DefaultSpills / r.OptimalSpills
	mroRatio := r.MronlineSpills / r.OptimalSpills
	if defRatio < 2 || defRatio > 3.6 {
		t.Fatalf("default spill ratio = %.2f, paper ~3x", defRatio)
	}
	if mroRatio > 1.5 {
		t.Fatalf("MRONLINE spill ratio = %.2f, paper ~1x (optimal)", mroRatio)
	}
	if r.OfflineSpills/r.OptimalSpills > 1.5 {
		t.Fatalf("offline guide spill ratio = %.2f, paper ~1x", r.OfflineSpills/r.OptimalSpills)
	}
}

func TestFig5WikipediaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	rows := DefaultEnv().Fig5()
	if len(rows) != 4 {
		t.Fatalf("Fig5 rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: 11-25% improvements across the Wikipedia apps.
		if imp := r.Improvement(); imp < 0.05 || imp > 0.50 {
			t.Errorf("%s improvement = %.0f%%, outside plausible band", r.Bench, imp*100)
		}
		// Spills at or near optimal under MRONLINE.
		if r.MronlineSpills/r.OptimalSpills > 2.0 {
			t.Errorf("%s MRONLINE spills %.1fx optimal", r.Bench, r.MronlineSpills/r.OptimalSpills)
		}
		// bigram shuffles the most and has the largest absolute times.
		if r.Bench != "bigram/Wikipedia" && r.DefaultDur > rows[0].DefaultDur {
			t.Errorf("%s slower than bigram under default — wrong workload ordering", r.Bench)
		}
	}
}

func TestFig6FreebaseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	for _, r := range DefaultEnv().Fig6() {
		if imp := r.Improvement(); imp < 0.0 || imp > 0.55 {
			t.Errorf("%s improvement = %.0f%%, outside plausible band", r.Bench, imp*100)
		}
	}
}

func TestFig10to12SingleRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	e := DefaultEnv()
	var rows []SingleRunRow
	rows = append(rows, e.Fig10()...)
	rows = append(rows, e.Fig11()...)
	rows = append(rows, e.Fig12()...)
	if len(rows) != 9 {
		t.Fatalf("single-run rows = %d, want 9", len(rows))
	}
	improved := 0
	for _, r := range rows {
		imp := r.Improvement()
		// Paper band: 8% to 22%; allow moderate slack but never a
		// meaningful regression.
		if imp < -0.03 {
			t.Errorf("%s regressed by %.0f%% under conservative tuning", r.Bench, -imp*100)
		}
		if imp > 0.40 {
			t.Errorf("%s improved %.0f%%, implausibly high for conservative tuning", r.Bench, imp*100)
		}
		if imp >= 0.05 {
			improved++
		}
	}
	if improved < 6 {
		t.Fatalf("only %d/9 apps improved >= 5%%; paper improves all", improved)
	}
}

func TestFig13JobSizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	rows := DefaultEnv().Fig13()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Small jobs: marginal; big jobs: ~20-35%; improvement does not
	// keep growing once the search has enough tasks (paper §8.4).
	small := rows[0] // 2 GB
	if imp := small.Improvement(); math.Abs(imp) > 0.10 {
		t.Errorf("2GB improvement = %.0f%%, want marginal", imp*100)
	}
	for _, r := range rows[3:] { // 20, 60, 100 GB
		if imp := r.Improvement(); imp < 0.15 || imp > 0.40 {
			t.Errorf("%dGB improvement = %.0f%%, paper ~20-23%%", r.SizeGB, imp*100)
		}
	}
	// Default durations must grow with size.
	for i := 1; i < len(rows); i++ {
		if rows[i].DefaultDur <= rows[i-1].DefaultDur {
			t.Errorf("default duration not monotone at %dGB", rows[i].SizeGB)
		}
	}
}

func TestFig14to16MultiTenantShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	mt := DefaultEnv().MultiTenant()
	tsImp := (mt.Default.Terasort.Duration - mt.Mronline.Terasort.Duration) / mt.Default.Terasort.Duration
	bbpImp := (mt.Default.BBP.Duration - mt.Mronline.BBP.Duration) / mt.Default.BBP.Duration
	if tsImp < 0.05 {
		t.Errorf("multi-tenant Terasort improvement = %.0f%%, paper 13%%", tsImp*100)
	}
	if bbpImp < 0.10 {
		t.Errorf("multi-tenant BBP improvement = %.0f%%, paper 28%%", bbpImp*100)
	}
	// Fig 15: memory utilization rises above ~80% for terasort tasks
	// and BBP maps.
	if mt.Mronline.Terasort.MapMemUtil < 0.8 {
		t.Errorf("tuned terasort map mem util = %.2f, paper > 80%%", mt.Mronline.Terasort.MapMemUtil)
	}
	if mt.Mronline.BBP.MapMemUtil < 0.8 {
		t.Errorf("tuned BBP map mem util = %.2f, paper > 80%%", mt.Mronline.BBP.MapMemUtil)
	}
	if mt.Default.Terasort.MapMemUtil > 0.5 {
		t.Errorf("default terasort map mem util = %.2f, paper < 50%%", mt.Default.Terasort.MapMemUtil)
	}
	// Fig 16: BBP maps are CPU-saturated under the default allocation.
	if mt.Default.BBP.MapCPUUtil < 0.9 {
		t.Errorf("default BBP map CPU util = %.2f, paper ~99%%", mt.Default.BBP.MapCPUUtil)
	}
	// Terasort spilled records: paper 1.8e9 -> 0.6e9.
	defSp := mt.Default.Terasort.Counters.SpilledRecords()
	mroSp := mt.Mronline.Terasort.Counters.SpilledRecords()
	if defSp < 1.4e9 || defSp > 2.4e9 {
		t.Errorf("default terasort spills = %.2e, paper 1.8e9", defSp)
	}
	if mroSp > 0.9e9 {
		t.Errorf("MRONLINE terasort spills = %.2e, paper 0.6e9", mroSp)
	}
}

func TestTestRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	// A smaller job keeps the GA's dozens of test runs cheap.
	rows := DefaultEnv().TestRunCounts(workload.Terasort(20, 0, 0), 4)
	if rows[0].Runs != 1 {
		t.Fatalf("MRONLINE runs = %d, want 1", rows[0].Runs)
	}
	if rows[1].Runs < 8 {
		t.Fatalf("GA runs = %d; paper reports 20-40 for Gunther", rows[1].Runs)
	}
}

func TestTable3Regenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	for _, r := range DefaultEnv().Table3() {
		if r.ShuffleMB == 0 {
			continue
		}
		if math.Abs(r.MeasShuffleMB-r.ShuffleMB) > math.Max(1, 0.10*r.ShuffleMB) {
			t.Errorf("%s measured shuffle %v vs table %v", r.Bench, r.MeasShuffleMB, r.ShuffleMB)
		}
		if r.OutputMB > 0 && math.Abs(r.MeasOutputMB-r.OutputMB) > math.Max(1, 0.10*r.OutputMB) {
			t.Errorf("%s measured output %v vs table %v", r.Bench, r.MeasOutputMB, r.OutputMB)
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

func TestHotSpotAvoidanceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := DefaultEnv().HotSpotStudy(4)
	// Interference must hurt blind placement badly...
	if r.DefaultDur < r.CleanDur*1.5 {
		t.Fatalf("interference too weak: clean %.0fs vs hot %.0fs", r.CleanDur, r.DefaultDur)
	}
	// ...and utilization-aware placement must claw back a meaningful
	// part of the loss (paper §1: avoid performance-degrading hot spots).
	if imp := r.Improvement(); imp < 0.08 {
		t.Fatalf("hot-spot avoidance improvement = %.0f%%, want >= 8%%", imp*100)
	}
	// Avoidance cannot beat an uninterfered cluster.
	if r.AvoidDur < r.CleanDur {
		t.Fatalf("avoidance (%.0fs) faster than clean cluster (%.0fs)?", r.AvoidDur, r.CleanDur)
	}
}

func TestStragglerMitigationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := DefaultEnv().StragglerStudy(3)
	if r.SpecLaunches == 0 || r.SpecWins == 0 {
		t.Fatalf("speculation idle under stragglers: %d launches, %d wins", r.SpecLaunches, r.SpecWins)
	}
	// Speculation helps, but only partially: the winning copies still
	// write HDFS replicas through the hot disks. Combining it with
	// load-aware placement must be the best of the four.
	if r.SpeculationDur >= r.NoneDur {
		t.Fatalf("speculation (%.0fs) did not beat nothing (%.0fs)", r.SpeculationDur, r.NoneDur)
	}
	if r.BothDur >= r.SpeculationDur || r.BothDur >= r.AvoidanceDur || r.BothDur >= r.NoneDur {
		t.Fatalf("both mitigations (%.0fs) should win: none=%.0f spec=%.0f avoid=%.0f",
			r.BothDur, r.NoneDur, r.SpeculationDur, r.AvoidanceDur)
	}
}

func TestAmortizationCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	rows := DefaultEnv().Amortization(workload.Terasort(60, 0, 0), 8)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Run 1: the aggressive test run costs more than a default run.
	if rows[0].CumulativeMronline <= rows[0].CumulativeDefault {
		t.Fatalf("test run (%.0fs) should cost more than one default run (%.0fs)",
			rows[0].CumulativeMronline, rows[0].CumulativeDefault)
	}
	// By the last run the tuned configuration has paid for itself.
	last := rows[len(rows)-1]
	if last.CumulativeMronline >= last.CumulativeDefault {
		t.Fatalf("after %d runs MRONLINE (%.0fs) never beat default (%.0fs)",
			last.Runs, last.CumulativeMronline, last.CumulativeDefault)
	}
	// Conservative always beats default cumulatively (it never costs a
	// test run).
	if last.CumulativeConserv >= last.CumulativeDefault {
		t.Fatal("conservative tuning should always beat default cumulatively")
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
	imp := (def.Duration - tuned.Duration) / def.Duration
	if imp < 0.05 {
		t.Fatalf("heterogeneous-cluster improvement = %.0f%%, tuner not robust to mixed hardware", imp*100)
	}
}

func TestBuildReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	var buf bytes.Buffer
	doc := DefaultEnv().BuildReport()
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
	imps := make([]float64, seeds)
	parallelFor(seeds, runtime.GOMAXPROCS(0), func(i int) {
		sub := Env{Seed: e.Seed + uint64(i)*977, Reps: 1}
		def := sub.RunOne(b, mrconf.Default(), nil)
		tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Conservative, Seed: sub.Seed})
		run := sub.RunOne(b, mrconf.Default(), tuner)
		imps[i] = (def.Duration - run.Duration) / def.Duration
	})
	return sweepStat(imps)
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
