// Package experiments reproduces every table and figure of the
// MRONLINE evaluation (§8). Each runner builds fresh simulated
// 19-node clusters, executes the required job runs, and returns the
// rows the paper reports. Sections lists every artifact with its
// arguments: cmd/mrexperiments prints them, BuildReport charts them,
// and the claims and the root BenchmarkSections read them.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// parallelFor runs fn(0..n-1) on at most workers goroutines, never
// more than GOMAXPROCS or n, and waits. Simulations are
// single-threaded but independent (each builds its own engine and
// cluster), so experiment sweeps parallelize perfectly; results must
// be written to index-distinct slots. A panic in fn reaches the caller:
// once one index panics no further index starts, and parallelFor
// re-raises the panic of the lowest index that panicked, the one a
// serial loop would have raised.
func parallelFor(n, workers int, fn func(i int)) {
	workers = min(workers, runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		lowest  = n // the lowest index that panicked, n when none has
		reraise any
	)
	call := func(i int) {
		defer func() {
			// Since Go 1.21 even panic(nil) recovers non-nil.
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if i < lowest {
					lowest, reraise = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Indices are claimed in increasing order, so every index
			// below one that panicked has started and is waited for.
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	if lowest < n {
		panic(reraise)
	}
}

// Env fixes the reproducibility seed for a set of runs.
type Env struct {
	Seed uint64
	// Reps is how many independently-seeded repetitions the
	// search-based (MRONLINE) leg of each experiment averages over,
	// mirroring the paper's "we repeat each experiment four times and
	// report the average" (§8.1). Zero means 3.
	Reps int
	// FaultSpec, when non-nil and non-empty, is armed against the
	// cluster of each run made through this Env's RunSpec (RunOne and
	// the experiments built on them), injecting the described faults
	// deterministically from the run's seed. Not every leg of every
	// figure is such a run: Expedited's MRONLINE legs run on a sub-Env
	// without it, and MultiTenant, HotSpotStudy and StragglerStudy
	// build rigs of their own that never arm it. Nil (the default)
	// changes nothing.
	FaultSpec *faults.Spec
	// Backend names the optimizer backend aggressive test runs drive:
	// "" or "hill" is the paper's Algorithm 1 (byte-identical to the
	// committed figures); "spsa" and "tpe" are the alternatives the
	// tournament compares. See tuner.Backends().
	Backend string
	// KB, when non-nil, closes the cross-job learning loop:
	// AggressiveTestRun on this Env warm-starts each job from its
	// class's stored search state and deposits its best configuration
	// and search state afterwards. That covers Fig13, TestRunCounts and
	// Amortization; Expedited's MRONLINE legs run on a sub-Env without
	// it, and never read or update it.
	KB *core.KnowledgeBase
}

func (e Env) reps() int {
	if e.Reps <= 0 {
		return 3
	}
	return e.Reps
}

// Rig is one fresh simulated cluster.
type Rig struct {
	Eng *sim.Engine
	C   *cluster.Cluster
	RM  *yarn.ResourceManager
	FS  *hdfs.FileSystem
}

// NewRig builds the paper's 19-node testbed with the given scheduler.
func (e Env) NewRig(sched yarn.Scheduler) *Rig {
	eng := sim.NewEngine()
	eng.MaxEvents = 200_000_000
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, sched)
	fs := hdfs.New(c, sim.NewSource(e.Seed).Stream("hdfs"))
	return &Rig{Eng: eng, C: c, RM: rm, FS: fs}
}

// jobFailed, when set, is called with the result of every job Rig.Run
// drains that ends failed, from whichever goroutine ran it. Tests set
// it to name the figure legs that fail; nil costs nothing.
var jobFailed func(mapreduce.Result)

// Run submits specs in order at the current simulated time, drains the
// engine, and returns the results in spec order. It panics naming the
// first job that did not finish.
func (r *Rig) Run(specs ...mapreduce.Spec) []mapreduce.Result {
	res := make([]mapreduce.Result, len(specs))
	done := make([]bool, len(specs))
	for i, spec := range specs {
		mapreduce.Submit(r.RM, r.FS, spec, func(rr mapreduce.Result) { res[i], done[i] = rr, true })
	}
	r.Eng.Run()
	for i, ok := range done {
		if !ok {
			name := specs[i].Name
			if name == "" {
				name = specs[i].Benchmark.Name
			}
			panic(fmt.Sprintf("experiments: job %s never completed", name))
		}
		if jobFailed != nil && res[i].Failed {
			jobFailed(res[i])
		}
	}
	return res
}

// CheckFaultNodes reports a node e.FaultSpec names that a cluster it
// will be armed on lacks: the serving cluster of DefaultStreamSpec when
// stream is set, and the paper testbed when testbed is set.
func (e Env) CheckFaultNodes(stream, testbed bool) error {
	if e.FaultSpec == nil {
		return nil
	}
	if stream {
		s := DefaultStreamSpec(e.Seed)
		if err := e.FaultSpec.CheckNodes(s.Racks * s.NodesPerRack); err != nil {
			return err
		}
	}
	if testbed {
		n := 0
		for _, size := range cluster.PaperConfig().RackSizes {
			n += size
		}
		return e.FaultSpec.CheckNodes(n)
	}
	return nil
}

// RunOne executes a single job on a fresh FIFO cluster.
func (e Env) RunOne(b workload.Benchmark, cfg mrconf.Config, ctrl mapreduce.Controller) mapreduce.Result {
	return e.RunSpec(mapreduce.Spec{Benchmark: b, BaseConfig: cfg, Controller: ctrl})
}

// RunSpec executes one fully-specified job submission on a fresh FIFO
// cluster (the most general single-job entry point).
func (e Env) RunSpec(spec mapreduce.Spec) mapreduce.Result {
	r := e.NewRig(yarn.FIFOScheduler{})
	e.ArmFaults(r, &spec)
	return r.Run(spec)[0]
}

// ArmFaults schedules e.FaultSpec (if any) against the rig's cluster
// and installs the probabilistic hooks on the job spec. Node-state
// trace events land in spec.Trace alongside the job's own events.
func (e Env) ArmFaults(r *Rig, spec *mapreduce.Spec) {
	if e.FaultSpec == nil || e.FaultSpec.Empty() {
		return
	}
	inj, err := faults.New(r.C, sim.NewSource(e.Seed), *e.FaultSpec, spec.Trace)
	if err != nil {
		panic(err)
	}
	spec.Faults = inj
}

// Gain returns tuned's relative gain over def, RelGain of their times,
// and whether both jobs completed. When either failed the gain is not
// a measurement: a failed job's time is the time it gave up.
func Gain(def, tuned mapreduce.Result) (float64, bool) {
	d, defOK := def.Secs()
	t, tunedOK := tuned.Secs()
	return RelGain(d, t), defOK && tunedOK
}

// RelGain is the relative gain of a tuned time over a default time,
// (def − tuned)/def, and 0 when def is 0. It is the one copy of the
// formula; job results go through Gain, which also reports failure.
func RelGain(def, tuned float64) float64 {
	if def == 0 {
		return 0
	}
	return (def - tuned) / def
}

// AggressiveTestRun runs one expedited test run with the aggressive
// tuner and returns the tuner (for BestConfig) and the run result.
// With a KB it first consults the job's class entry for a warm start
// and afterwards deposits the best configuration and search state.
func (e Env) AggressiveTestRun(b workload.Benchmark) (*core.Tuner, mapreduce.Result) {
	opts := core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed, Backend: e.Backend}
	var key string
	if e.KB != nil {
		key = core.Key(b.Name, b.InputSizeMB)
		if ent, ok := e.KB.Get(key); ok {
			opts.Warm = &ent
		}
	}
	tn := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(), opts)
	res := e.RunOne(b, mrconf.Default(), tn)
	if e.KB != nil {
		ent := tn.ExportWarm()
		best := tn.BestConfig()
		ent.Config = &best
		e.KB.Update(key, ent)
	}
	return tn, res
}

// ExpeditedRow is one bar group of Figs 4–6 plus the spill counts of
// Figs 7–9.
type ExpeditedRow struct {
	Bench string

	DefaultDur  float64
	OfflineDur  float64
	MronlineDur float64
	TestRunDur  float64

	OptimalSpills  float64 // combiner output records
	DefaultSpills  float64
	OfflineSpills  float64
	MronlineSpills float64

	BestConfig mrconf.Config
}

// Improvement returns MRONLINE's relative gain over the default.
func (r ExpeditedRow) Improvement() float64 { return RelGain(r.DefaultDur, r.MronlineDur) }

// defaultLeg is a benchmark's run under the default configuration as
// the figure rows read it: the result without its per-task reports.
type defaultLeg struct {
	mapreduce.Result
	// Profile is the offline guide's reading of the run's reports.
	Profile baseline.ProfileStats
}

// legKey names a default leg: on a fresh testbed, a job under the
// default configuration and no controller is fixed by the seed and the
// benchmark.
type legKey struct {
	seed  uint64
	bench workload.Benchmark
}

// legMemo runs each default leg once and shares it: Figs 10–12 run the
// very default legs of Figs 4–6. Each key has a once-cell, so
// concurrent misses on one key run the leg once and the others wait
// for it.
type legMemo struct {
	mu    sync.Mutex
	cells map[legKey]*legCell
}

type legCell struct {
	once sync.Once
	leg  defaultLeg
}

// get returns k's leg, running run to fill it on the first request.
func (m *legMemo) get(k legKey, run func() defaultLeg) defaultLeg {
	m.mu.Lock()
	c, ok := m.cells[k]
	if !ok {
		if m.cells == nil {
			m.cells = make(map[legKey]*legCell)
		}
		c = &legCell{}
		m.cells[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.leg = run() })
	return c.leg
}

// defaultLegs is the process-wide memo of default legs.
var defaultLegs legMemo

// defaultLeg runs b under the default configuration on a fresh FIFO
// testbed, once per seed and benchmark. With a FaultSpec (whose faults
// fall on the run's own cluster) it bypasses the memo.
func (e Env) defaultLeg(b workload.Benchmark) defaultLeg {
	run := func() defaultLeg {
		res := e.RunOne(b, mrconf.Default(), nil)
		leg := defaultLeg{Result: res, Profile: baseline.ProfileFromResult(res)}
		leg.Reports = nil
		return leg
	}
	if e.FaultSpec != nil {
		return run()
	}
	return defaultLegs.get(legKey{seed: e.Seed, bench: b}, run)
}

// Expedited reproduces one bar group of the expedited-test-runs
// experiment (§8.2): default vs offline-guide vs MRONLINE-tuned
// configuration, plus the spill-record study. The default→offline
// chain and the search legs are independent, so they run side by side.
func (e Env) Expedited(b workload.Benchmark) ExpeditedRow {
	// The search is stochastic; average the MRONLINE leg over
	// independently seeded repetitions as the paper does (§8.1).
	reps := e.reps()
	type repOut struct {
		cfg               mrconf.Config
		dur, test, spills float64
	}
	outs := make([]repOut, reps)
	var def defaultLeg
	var off mapreduce.Result
	parallelFor(1+reps, runtime.GOMAXPROCS(0), func(i int) {
		if i == 0 {
			def = e.defaultLeg(b)
			// Offline guide: heuristics applied to profiling-run
			// statistics (the profiling run is the default run; the
			// guide process repeats trial runs, which the §7
			// comparison counts).
			off = e.RunOne(b, baseline.OfflineGuide(def.Profile), nil)
			return
		}
		r := i - 1
		sub := Env{Seed: e.Seed + uint64(r)*101, Reps: 1, Backend: e.Backend}
		tuner, test := sub.AggressiveTestRun(b)
		cfg := tuner.BestConfig()
		run := sub.RunOne(b, cfg, nil)
		runSecs, _ := run.Secs()
		testSecs, _ := test.Secs()
		outs[r] = repOut{cfg: cfg, dur: runSecs, test: testSecs, spills: run.Counters.SpilledRecords()}
	})
	var mroDur, testDur, mroSpills float64
	var best mrconf.Config
	var bestDur float64
	for r, o := range outs {
		mroDur += o.dur
		testDur += o.test
		mroSpills += o.spills
		if r == 0 || o.dur < bestDur {
			best, bestDur = o.cfg, o.dur
		}
	}
	n := float64(reps)
	defSecs, _ := def.Secs()
	offSecs, _ := off.Secs()
	return ExpeditedRow{
		Bench:          b.Name,
		DefaultDur:     defSecs,
		OfflineDur:     offSecs,
		MronlineDur:    mroDur / n,
		TestRunDur:     testDur / n,
		OptimalSpills:  def.Counters.CombineOutputRecs,
		DefaultSpills:  def.Counters.SpilledRecords(),
		OfflineSpills:  off.Counters.SpilledRecords(),
		MronlineSpills: mroSpills / n,
		BestConfig:     best,
	}
}

// Fig4 is the Terasort expedited experiment.
func (e Env) Fig4() []ExpeditedRow {
	return []ExpeditedRow{e.Expedited(workload.Terasort(100, 752, 200))}
}

// Fig5 covers the four Wikipedia applications (expedited).
func (e Env) Fig5() []ExpeditedRow { return onApps("Wikipedia", e.Expedited) }

// Fig6 covers the four Freebase applications (expedited).
func (e Env) Fig6() []ExpeditedRow { return onApps("Freebase", e.Expedited) }

// figBenches names the four applications Figs 5–6 and 11–12 run on
// dataset, in the figures' order.
func figBenches(dataset string) []string {
	apps := []string{"bigram", "invertedindex", "wordcount", "textsearch"}
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = app + "/" + dataset
	}
	return names
}

// onApps runs row on the four applications of dataset side by side,
// in figBenches order.
func onApps[T any](dataset string, row func(workload.Benchmark) T) []T {
	names := figBenches(dataset)
	rows := make([]T, len(names))
	parallelFor(len(names), runtime.GOMAXPROCS(0), func(i int) {
		b, err := workload.ByName(names[i])
		if err != nil {
			panic(err)
		}
		rows[i] = row(b)
	})
	return rows
}

// SingleRunRow is one bar pair of Figs 10–12.
type SingleRunRow struct {
	Bench       string
	DefaultDur  float64
	MronlineDur float64
}

// Improvement returns MRONLINE's relative gain over the default.
func (r SingleRunRow) Improvement() float64 { return RelGain(r.DefaultDur, r.MronlineDur) }

// SingleRun reproduces the fast-single-run experiment (§8.3):
// conservative tuning co-executing with the job. The default and
// tuned legs run side by side.
func (e Env) SingleRun(b workload.Benchmark) SingleRunRow {
	var def defaultLeg
	var mro mapreduce.Result
	parallelFor(2, runtime.GOMAXPROCS(0), func(i int) {
		if i == 0 {
			def = e.defaultLeg(b)
			return
		}
		cons := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
			core.TunerOptions{Strategy: core.Conservative, Seed: e.Seed})
		mro = e.RunOne(b, mrconf.Default(), cons)
	})
	defSecs, _ := def.Secs()
	mroSecs, _ := mro.Secs()
	return SingleRunRow{Bench: b.Name, DefaultDur: defSecs, MronlineDur: mroSecs}
}

// Fig10 is the Terasort fast single run.
func (e Env) Fig10() []SingleRunRow {
	return []SingleRunRow{e.SingleRun(workload.Terasort(100, 752, 200))}
}

// Fig11 covers the Wikipedia applications (fast single run).
func (e Env) Fig11() []SingleRunRow { return onApps("Wikipedia", e.SingleRun) }

// Fig12 covers the Freebase applications (fast single run).
func (e Env) Fig12() []SingleRunRow { return onApps("Freebase", e.SingleRun) }

// JobSizeRow is one x position of Fig 13.
type JobSizeRow struct {
	SizeGB      int
	Maps        int
	Reduces     int
	DefaultDur  float64
	MronlineDur float64
}

// Improvement returns the relative gain.
func (r JobSizeRow) Improvement() float64 { return RelGain(r.DefaultDur, r.MronlineDur) }

// fig13Sizes are Fig 13's Terasort input sizes in GB.
var fig13Sizes = []int{2, 6, 10, 20, 60, 100}

// Fig13 reproduces the job-size study (§8.4): Terasort from 2 to
// 100 GB with reducers ≈ maps/4, aggressive tuning in a single test
// run, then re-run with the generated configuration.
func (e Env) Fig13() []JobSizeRow {
	rows := make([]JobSizeRow, len(fig13Sizes))
	parallelFor(len(fig13Sizes), runtime.GOMAXPROCS(0), func(i int) {
		gb := fig13Sizes[i]
		b := workload.Terasort(gb, 0, 0)
		def := e.RunOne(b, mrconf.Default(), nil)
		tuner, _ := e.AggressiveTestRun(b)
		mro := e.RunOne(b, tuner.BestConfig(), nil)
		defSecs, _ := def.Secs()
		mroSecs, _ := mro.Secs()
		rows[i] = JobSizeRow{
			SizeGB: gb, Maps: b.NumMaps, Reduces: b.NumReduces,
			DefaultDur: defSecs, MronlineDur: mroSecs,
		}
	})
	return rows
}

// MultiTenantResult carries Figs 14, 15 and 16: per-application job
// execution times and map/reduce CPU and memory utilization under the
// default configuration and under MRONLINE, with Terasort 60 GB and
// BBP sharing the cluster under fair scheduling.
type MultiTenantResult struct {
	Default  MultiTenantRun
	Mronline MultiTenantRun
}

// MultiTenantRun is one co-execution of the two applications.
type MultiTenantRun struct {
	Terasort mapreduce.Result
	BBP      mapreduce.Result
}

// MultiTenant reproduces §8.5. The MRONLINE side first performs
// aggressive test runs (co-located, fair share) to generate per-app
// configurations, then co-runs both applications under them.
func (e Env) MultiTenant() MultiTenantResult {
	ts := workload.Terasort(60, 448, 200)
	bbp := workload.BBP(500000, 100)

	runPair := func(tsCfg, bbpCfg mrconf.Config, tsCtrl, bbpCtrl mapreduce.Controller) MultiTenantRun {
		res := e.NewRig(yarn.FairScheduler{}).Run(
			mapreduce.Spec{Name: "terasort60", Benchmark: ts, BaseConfig: tsCfg, Controller: tsCtrl},
			mapreduce.Spec{Name: "bbp", Benchmark: bbp, BaseConfig: bbpCfg, Controller: bbpCtrl})
		return MultiTenantRun{Terasort: res[0], BBP: res[1]}
	}

	def := runPair(mrconf.Default(), mrconf.Default(), nil, nil)

	tsTuner := core.NewTuner("terasort60", ts.NumMaps, ts.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed})
	bbpTuner := core.NewTuner("bbp", bbp.NumMaps, bbp.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Aggressive, Seed: e.Seed + 1})
	runPair(mrconf.Default(), mrconf.Default(), tsTuner, bbpTuner)

	mro := runPair(tsTuner.BestConfig(), bbpTuner.BestConfig(), nil, nil)
	return MultiTenantResult{Default: def, Mronline: mro}
}

// TestRunCountRow compares how many test runs each tuning approach
// needs to reach a near-optimal configuration (§7: MRONLINE finishes
// in one trial, Gunther-class GAs take 20–40).
type TestRunCountRow struct {
	Approach string
	Runs     int
	BestDur  float64
}

// TestRunCounts runs MRONLINE (one aggressive test run) and the
// genetic baseline on the same job; the GA's run count is the number
// of evaluations until its best stays within 5% of its final best.
func (e Env) TestRunCounts(b workload.Benchmark, generations int) []TestRunCountRow {
	tuner, _ := e.AggressiveTestRun(b)
	mroDur, _ := e.RunOne(b, tuner.BestConfig(), nil).Secs()

	ga := e.genetic(b, generations)
	_, gaBest := ga.Best()
	// Runs-to-converge: the evaluation at which the GA last improved —
	// an offline operator cannot stop before that without giving up
	// the final configuration quality.
	runs := 1
	for i := 1; i < len(ga.History); i++ {
		if ga.History[i] < ga.History[i-1] {
			runs = i + 1
		}
	}
	return []TestRunCountRow{
		{Approach: "MRONLINE (aggressive)", Runs: 1, BestDur: mroDur},
		{Approach: "Gunther-style GA", Runs: runs, BestDur: gaBest},
	}
}

// genetic runs the Gunther-style GA on b for the given generations,
// one fresh testbed run per evaluation. A trial whose job failed
// scores +Inf, so it never becomes the GA's best.
func (e Env) genetic(b workload.Benchmark, generations int) *baseline.Genetic {
	ga := baseline.NewGenetic(sim.NewSource(e.Seed).Stream("ga"))
	ga.Run(func(cfg mrconf.Config) float64 {
		secs, ok := e.RunOne(b, cfg, nil).Secs()
		if !ok {
			return math.Inf(1)
		}
		return secs
	}, generations)
	return ga
}

// Table3Row verifies that the simulated workloads regenerate the
// paper's Table 3 characteristics.
type Table3Row struct {
	Bench                        string
	InputMB, ShuffleMB, OutputMB float64
	MeasShuffleMB, MeasOutputMB  float64
	Maps, Reduces                int
	JobType                      string
}

// Table3 runs every suite benchmark under the default configuration
// and reports table-vs-measured data volumes.
func (e Env) Table3() []Table3Row {
	suite := workload.Suite()
	rows := make([]Table3Row, len(suite))
	parallelFor(len(suite), runtime.GOMAXPROCS(0), func(i int) {
		b := suite[i]
		res := e.RunOne(b, mrconf.Default(), nil)
		rows[i] = Table3Row{
			Bench:   b.Name,
			InputMB: b.InputSizeMB, ShuffleMB: b.ShuffleSizeMB, OutputMB: b.OutputSizeMB,
			MeasShuffleMB: res.Counters.MapOutputMB, MeasOutputMB: res.Counters.OutputMB,
			Maps: b.NumMaps, Reduces: b.NumReduces,
			JobType: string(b.Type),
		}
	})
	return rows
}

// HotSpotRow compares job time on a cluster with interfered ("hot")
// nodes, with and without MRONLINE's utilization-aware placement —
// the hot-spot avoidance claim of §1.
type HotSpotRow struct {
	HotNodes   int
	DefaultDur float64
	AvoidDur   float64
	CleanDur   float64 // same job on an uninterfered cluster
}

// Improvement returns the gain of hot-spot avoidance over blind
// placement on the interfered cluster.
func (r HotSpotRow) Improvement() float64 { return RelGain(r.DefaultDur, r.AvoidDur) }

// HotSpotStudy injects sustained disk and CPU interference on hotNodes
// nodes (co-located services hogging ~90% of the disk and most cores),
// then runs Terasort 20 GB with and without the hot-spot filter.
func (e Env) HotSpotStudy(hotNodes int) HotSpotRow {
	b := workload.Terasort(20, 0, 0)
	run := func(interfere, avoid bool) float64 {
		r := e.NewRig(yarn.FIFOScheduler{})
		if interfere {
			r.Interfere(hotNodes)
		}
		if avoid {
			core.EnableHotSpotAvoidance(r.RM, r.FS)
		}
		secs, _ := r.Run(mapreduce.Spec{Benchmark: b, BaseConfig: mrconf.Default()})[0].Secs()
		return secs
	}
	return HotSpotRow{
		HotNodes:   hotNodes,
		DefaultDur: run(true, false),
		AvoidDur:   run(true, true),
		CleanDur:   run(false, false),
	}
}

// Interfere makes the first hotNodes nodes hot for an hour: a
// co-located service hogs ~90% of each one's disk and most of its
// cores. Max-min sharing means one background flow is just one more
// competitor; a service that truly hogs a node runs many streams, so it
// injects several parallel flows per resource.
func (r *Rig) Interfere(hotNodes int) {
	for i := 0; i < hotNodes && i < len(r.C.Nodes); i++ {
		n := r.C.Nodes[i]
		for k := 0; k < 30; k++ {
			n.InjectDiskLoad(30, 3600, nil)
			n.InjectCPULoad(1, 3600, nil)
		}
	}
}

// StragglerRow compares mitigation strategies on a cluster that
// develops hot spots mid-job: nothing, speculative execution,
// hot-spot-aware placement, and both combined.
type StragglerRow struct {
	NoneDur        float64
	SpeculationDur float64
	AvoidanceDur   float64
	BothDur        float64
	SpecLaunches   int
	SpecWins       int
}

// StragglerStudy injects severe interference on `hotNodes` nodes three
// seconds into a Terasort 20 GB run (after the first wave has been
// placed) and measures each mitigation.
func (e Env) StragglerStudy(hotNodes int) StragglerRow {
	b := workload.Terasort(20, 0, 0)
	run := func(speculate, avoid bool) mapreduce.Result {
		r := e.NewRig(yarn.FIFOScheduler{})
		r.Eng.At(3, func() { r.Interfere(hotNodes) })
		if avoid {
			core.EnableHotSpotAvoidance(r.RM, r.FS)
		}
		spec := mapreduce.Spec{Benchmark: b, BaseConfig: mrconf.Default()}
		if speculate {
			spec.Speculation = mapreduce.DefaultSpeculation()
		}
		return r.Run(spec)[0]
	}
	none, _ := run(false, false).Secs()
	spec := run(true, false)
	specSecs, _ := spec.Secs()
	avoid, _ := run(false, true).Secs()
	both, _ := run(true, true).Secs()
	return StragglerRow{
		NoneDur:        none,
		SpeculationDur: specSecs,
		AvoidanceDur:   avoid,
		BothDur:        both,
		SpecLaunches:   spec.Counters.SpeculativeLaunches,
		SpecWins:       spec.Counters.SpeculativeWins,
	}
}

// AmortizationRow tracks cumulative execution time over a sequence of
// runs of the same application — the paper's core economic argument:
// one instrumented test run plus knowledge-base reuse beats both
// never tuning and re-tuning conservatively every run.
type AmortizationRow struct {
	Runs               int
	CumulativeDefault  float64
	CumulativeMronline float64 // run 1 = aggressive test run, rest = KB config
	CumulativeConserv  float64 // conservative tuning every run
}

// Amortization simulates `runs` executions of the benchmark under the
// three policies.
func (e Env) Amortization(b workload.Benchmark, runs int) []AmortizationRow {
	defDur, _ := e.RunOne(b, mrconf.Default(), nil).Secs()

	tuner, test := e.AggressiveTestRun(b)
	testDur, _ := test.Secs()
	tunedDur, _ := e.RunOne(b, tuner.BestConfig(), nil).Secs()

	consTuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: e.Seed})
	consDur, _ := e.RunOne(b, mrconf.Default(), consTuner).Secs()

	var rows []AmortizationRow
	cumDef, cumMro, cumCons := 0.0, 0.0, 0.0
	for i := 1; i <= runs; i++ {
		cumDef += defDur
		if i == 1 {
			cumMro += testDur // the instrumented test run
		} else {
			cumMro += tunedDur
		}
		cumCons += consDur
		rows = append(rows, AmortizationRow{
			Runs:               i,
			CumulativeDefault:  cumDef,
			CumulativeMronline: cumMro,
			CumulativeConserv:  cumCons,
		})
	}
	return rows
}

// JobStreamRow summarizes a multi-job arrival stream (the multi-tenant
// environment of the paper's second use case, generalized beyond two
// jobs): mean job completion time with and without MRONLINE's
// conservative tuner attached to every job.
type JobStreamRow struct {
	Jobs            int
	MeanDefault     float64
	MeanMronline    float64
	MakespanDefault float64
	MakespanMron    float64
}

// Improvement returns the mean-completion-time gain.
func (r JobStreamRow) Improvement() float64 { return RelGain(r.MeanDefault, r.MeanMronline) }

// JobStream serves `count` jobs drawn with equal weight from a small
// mix (Terasort 20 GB, wordcount-like, compute-heavy) on the paper
// testbed's 2 × 9 nodes: a RunStream whose Poisson arrivals have mean
// gap meanGapSecs and no diurnal swing, once untuned and once Tuned.
func (e Env) JobStream(count int, meanGapSecs float64) JobStreamRow {
	spec := StreamSpec{
		Seed:         e.Seed,
		Racks:        2,
		NodesPerRack: 9,
		MeanPerHour:  3600 / meanGapSecs,
		HorizonSecs:  100 * float64(count) * meanGapSecs,
		MaxJobs:      count,
		Classes: []StreamClass{
			{Weight: 1, Bench: workload.Terasort(20, 0, 0)},
			{Weight: 1, Bench: mustSpec(workload.BenchmarkSpec{
				Name: "logcount", InputGB: 15, Maps: 112, Reduces: 28,
				MapCPUPerMB: 0.015, RawMapSelectivity: 1.1, CombinerReduction: 0.3,
				ReduceSelectivity: 0.3, RecordBytes: 20, SkewCV: 0.15,
				MapWorkingSetMB: 200, ReduceWorkingSetMB: 150,
			})},
			{Weight: 1, Bench: mustSpec(workload.BenchmarkSpec{
				Name: "featurize", InputGB: 10, Maps: 75, Reduces: 19,
				MapCPUPerMB: 0.05, RawMapSelectivity: 0.4, CombinerReduction: 1,
				ReduceSelectivity: 0.5, RecordBytes: 80, SkewCV: 0.1,
				MapWorkingSetMB: 150, ReduceWorkingSetMB: 150,
			})},
		},
	}
	def := RunStream(spec)
	spec.Tuned = true
	mro := RunStream(spec)
	for _, r := range []StreamResult{def, mro} {
		if r.Jobs < count {
			panic(fmt.Sprintf("experiments: job stream submitted %d of %d jobs", r.Jobs, count))
		}
	}
	return JobStreamRow{
		Jobs:            count,
		MeanDefault:     def.MeanDur,
		MeanMronline:    mro.MeanDur,
		MakespanDefault: def.Makespan,
		MakespanMron:    mro.Makespan,
	}
}

func mustSpec(s workload.BenchmarkSpec) workload.Benchmark {
	b, err := s.Benchmark()
	if err != nil {
		panic(err)
	}
	return b
}

// SweepStat summarizes an improvement metric across seeds.
type SweepStat struct {
	Seeds   int // seeds whose default and tuned legs both completed
	MeanImp float64
	MinImp  float64
	MaxImp  float64
	StdDev  float64
}

// SeedSweep quantifies run-to-run variance of the expedited use case
// on one benchmark: the full tune-then-run pipeline repeated across
// `seeds` independent seeds (each with Reps=1 so the sweep measures
// raw variance, not averaged results).
func (e Env) SeedSweep(b workload.Benchmark, seeds int) SweepStat {
	return e.sweep(seeds, func(sub Env) (def, tuned mapreduce.Result) {
		def = sub.RunOne(b, mrconf.Default(), nil)
		tuner, _ := sub.AggressiveTestRun(b)
		return def, sub.RunOne(b, tuner.BestConfig(), nil)
	})
}

// overSeeds calls fn(i, e.Seed + 977i) for i < n side by side: the one
// seed schedule of the seed sweeps and the scorecard.
func (e Env) overSeeds(n int, fn func(i int, seed uint64)) {
	parallelFor(n, runtime.GOMAXPROCS(0), func(i int) { fn(i, e.Seed+uint64(i)*977) })
}

// sweep runs legs under `seeds` independent seeds (overSeeds, Reps 1)
// and summarizes the gains of the seeds whose legs both completed; a
// seed with a failed leg has no gain.
func (e Env) sweep(seeds int, legs func(sub Env) (def, tuned mapreduce.Result)) SweepStat {
	imps := make([]float64, seeds)
	ok := make([]bool, seeds)
	e.overSeeds(seeds, func(i int, seed uint64) {
		imps[i], ok[i] = Gain(legs(Env{Seed: seed, Reps: 1}))
	})
	done := imps[:0]
	for i, imp := range imps {
		if ok[i] {
			done = append(done, imp)
		}
	}
	return sweepStat(done)
}

// sweepStat summarizes per-seed improvements: min, max, mean and
// population standard deviation. No seeds give the zero SweepStat.
func sweepStat(imps []float64) SweepStat {
	if len(imps) == 0 {
		return SweepStat{}
	}
	st := SweepStat{Seeds: len(imps), MinImp: imps[0], MaxImp: imps[0]}
	sum, sumSq := 0.0, 0.0
	for _, v := range imps {
		sum += v
		sumSq += float64(v * v)
		if v < st.MinImp {
			st.MinImp = v
		}
		if v > st.MaxImp {
			st.MaxImp = v
		}
	}
	n := float64(len(imps))
	st.MeanImp = sum / n
	if variance := sumSq/n - float64(st.MeanImp*st.MeanImp); variance > 0 {
		st.StdDev = math.Sqrt(variance)
	}
	return st
}
