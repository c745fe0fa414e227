package core_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
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

// One aggressive test run stores a tuned configuration in the knowledge
// base; a repeat submission of the class runs it and beats the test run.
func ExampleKnowledgeBase() {
	kb := core.NewKnowledgeBase()
	b := workload.Terasort(20, 0, 0)

	_, testRun := experiments.Env{Seed: 7, KB: kb}.AggressiveTestRun(b)
	ent, _ := kb.Get(core.Key(b.Name, b.InputSizeMB))
	tunedRun := experiments.Env{Seed: 7}.RunOne(b, *ent.Config, nil)

	fmt.Println("knowledge base entries:", kb.Len())
	fmt.Println("second run faster:", tunedRun.Duration < testRun.Duration)
	// Output:
	// knowledge base entries: 1
	// second run faster: true
}
