package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

func newServiceRig(t *testing.T, opts ServiceOptions) (*sim.Engine, *Service) {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FairScheduler{})
	fs := hdfs.New(c, sim.NewSource(9).Stream("hdfs"))
	return eng, NewService(rm, fs, opts)
}

func TestServiceConservativeByDefault(t *testing.T) {
	eng, svc := newServiceRig(t, ServiceOptions{})
	b := workload.Terasort(10, 0, 0)
	var res mapreduce.Result
	svc.Submit(mapreduce.Spec{Name: "job1", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { res = r })
	eng.Run()
	if res.Failed {
		t.Fatal(res.Err)
	}
	// Conservative runs do not populate the knowledge base.
	if svc.KnowledgeBase().Len() != 0 {
		t.Fatal("conservative service stored a KB entry")
	}
}

func TestServiceAggressiveStoresAndReuses(t *testing.T) {
	eng, svc := newServiceRig(t, ServiceOptions{Strategy: Aggressive, Seed: 7})
	b := workload.Terasort(20, 0, 0)

	var first mapreduce.Result
	svc.Submit(mapreduce.Spec{Name: "run1", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { first = r })
	eng.Run()
	if first.Failed {
		t.Fatal(first.Err)
	}
	if svc.KnowledgeBase().Len() != 1 {
		t.Fatalf("KB entries = %d, want 1 after aggressive run", svc.KnowledgeBase().Len())
	}

	// Second submission of the same app+size: must start from the KB
	// config (observable through the reports' configs) and be faster
	// than the instrumented first run.
	var second mapreduce.Result
	svc.Submit(mapreduce.Spec{Name: "run2", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { second = r })
	eng.Run()
	if second.Failed {
		t.Fatal(second.Err)
	}
	if second.Duration >= first.Duration {
		t.Fatalf("KB-configured run (%.0fs) not faster than the test run (%.0fs)",
			second.Duration, first.Duration)
	}
	ent, _ := svc.KnowledgeBase().Get(Key(b.Name, b.InputSizeMB))
	kbCfg := ent.Config
	for _, rep := range second.Reports {
		if rep.Type == mapreduce.MapTask && rep.Config.SortMB() != kbCfg.SortMB() {
			t.Fatalf("second run ignored the KB config: %v vs %v", rep.Config.SortMB(), kbCfg.SortMB())
		}
	}
}

func TestServicePreservesCallerController(t *testing.T) {
	eng, svc := newServiceRig(t, ServiceOptions{})
	b := workload.Terasort(2, 0, 0)
	custom := &countingController{}
	svc.Submit(mapreduce.Spec{Name: "job", Benchmark: b, BaseConfig: mrconf.Default(), Controller: custom},
		func(mapreduce.Result) {})
	eng.Run()
	if custom.calls == 0 {
		t.Fatal("service replaced the caller's controller")
	}
}

type countingController struct {
	mapreduce.PassthroughController
	calls int
}

func (c *countingController) TaskConfig(t *mapreduce.Task, base mrconf.Config) mrconf.Config {
	c.calls++
	return base
}

func TestServiceDistinctAppsDistinctEntries(t *testing.T) {
	eng, svc := newServiceRig(t, ServiceOptions{Strategy: Aggressive, Seed: 3})
	done := 0
	svc.Submit(mapreduce.Spec{Name: "a", Benchmark: workload.Terasort(10, 0, 0), BaseConfig: mrconf.Default()},
		func(mapreduce.Result) { done++ })
	eng.Run()
	svc.Submit(mapreduce.Spec{Name: "b", Benchmark: workload.Terasort(60, 0, 0), BaseConfig: mrconf.Default()},
		func(mapreduce.Result) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	// Different input scales land in different power-of-two buckets.
	if svc.KnowledgeBase().Len() != 2 {
		t.Fatalf("KB entries = %d, want 2 (size buckets differ)", svc.KnowledgeBase().Len())
	}
}

// An entry that holds search state but no configuration (what a
// warm-started test run deposits) does not serve a job as-is: the
// service still tunes it, and the run deposits its configuration.
func TestServiceSearchOnlyEntryIsNotAHit(t *testing.T) {
	kb := NewKnowledgeBase()
	eng, svc := newServiceRig(t, ServiceOptions{Strategy: Aggressive, Seed: 7, KnowledgeBase: kb})
	b := workload.Terasort(20, 0, 0)
	key := Key(b.Name, b.InputSizeMB)
	kb.Update(key, Entry{Map: stateWithCost(1)})
	var res mapreduce.Result
	svc.Submit(mapreduce.Spec{Name: "r1", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { res = r })
	eng.Run()
	if res.Failed {
		t.Fatal(res.Err)
	}
	if e, _ := kb.Get(key); e.Config == nil || e.Jobs != 2 {
		t.Fatalf("search-only entry served as a hit: %+v", e)
	}
}

func TestServiceTunesStaticParams(t *testing.T) {
	eng, svc := newServiceRig(t, ServiceOptions{Strategy: Aggressive, Seed: 7, TuneStaticParams: true})
	b := workload.Terasort(20, 0, 0) // 150 maps, 37 reduces
	var first mapreduce.Result
	svc.Submit(mapreduce.Spec{Name: "r1", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { first = r })
	eng.Run()
	if first.Failed {
		t.Fatal(first.Err)
	}
	ent, _ := svc.KnowledgeBase().Get(Key(b.Name, b.InputSizeMB))
	p := ent.Statics
	if p == nil {
		t.Fatal("no static recommendation stored")
	}
	if p.NumReduces <= 0 || p.Slowstart <= 0 {
		t.Fatalf("bad static recommendation: %+v", p)
	}
	// The second submission runs with the recommended reducer count.
	var second mapreduce.Result
	j := svc.Submit(mapreduce.Spec{Name: "r2", Benchmark: b, BaseConfig: mrconf.Default()},
		func(r mapreduce.Result) { second = r })
	if len(j.ReduceTasks()) != p.NumReduces {
		t.Fatalf("second run has %d reducers, recommendation was %d",
			len(j.ReduceTasks()), p.NumReduces)
	}
	eng.Run()
	if second.Failed {
		t.Fatal(second.Err)
	}
}
