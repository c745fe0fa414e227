package core_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// The one-call workflow: attach a conservative tuner to a job and it
// gets faster with zero test runs.
func ExampleTuner() {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FIFOScheduler{})
	fs := hdfs.New(c, sim.NewSource(42).Stream("hdfs"))

	b := workload.Terasort(20, 0, 0)
	tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: 42})

	var res mapreduce.Result
	mapreduce.Submit(rm, fs, mapreduce.Spec{
		Benchmark:  b,
		BaseConfig: mrconf.Default(),
		Controller: tuner,
	}, func(r mapreduce.Result) { res = r })
	eng.Run()

	fmt.Println("failed:", res.Failed)
	fmt.Println("tuned io.sort.mb:", tuner.BestConfig().SortMB())
	// Output:
	// failed: false
	// tuned io.sort.mb: 150
}

// The Table 1 API: other tuning algorithms can drive per-task
// configurations through the dynamic configurator.
func ExampleDynamicConfigurator() {
	dc := core.NewDynamicConfigurator()
	dc.SetJobParameters("job-7", map[string]float64{mrconf.IOSortMB: 400})
	dc.SetTaskParameters("job-7", core.TaskID(true, 3), map[string]float64{mrconf.MapCPUVcores: 2})

	wide := dc.ConfigFor("job-7", core.TaskID(true, 0), mrconf.Default())
	task3 := dc.ConfigFor("job-7", core.TaskID(true, 3), mrconf.Default())
	fmt.Println(wide.SortMB(), wide.MapVcores())
	fmt.Println(task3.SortMB(), task3.MapVcores())
	// Output:
	// 400 1
	// 400 2
}

// Service is the deployment facade: one aggressive test run stores a
// tuned configuration in the knowledge base; repeat submissions start
// from it automatically.
func ExampleService() {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FairScheduler{})
	fs := hdfs.New(c, sim.NewSource(7).Stream("hdfs"))

	svc := core.NewService(rm, fs, core.ServiceOptions{
		Strategy: core.Aggressive, Seed: 7,
	})
	b := workload.Terasort(20, 0, 0)

	var testRun, tunedRun float64
	svc.Submit(mapreduce.Spec{Name: "run1", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { testRun = r.Duration })
	eng.Run()
	svc.Submit(mapreduce.Spec{Name: "run2", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { tunedRun = r.Duration })
	eng.Run()

	fmt.Println("knowledge base entries:", svc.KnowledgeBase().Len())
	fmt.Println("second run faster:", tunedRun < testRun)
	// Output:
	// knowledge base entries: 1
	// second run faster: true
}
