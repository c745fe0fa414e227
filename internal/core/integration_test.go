package core

import (
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

// These integration tests assert the headline behaviours of the paper
// end-to-end on the simulated cluster (runJob lives in probe_test.go).

func TestAggressiveTestRunProducesFasterConfig(t *testing.T) {
	b := workload.Terasort(100, 752, 200)
	def := runJob(t, b, mrconf.Default(), nil)

	tuner := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Aggressive, Seed: 7})
	test := runJob(t, b, mrconf.Default(), tuner)
	if test.Failed {
		t.Fatalf("aggressive test run failed: %v", test.Err)
	}
	tuned := runJob(t, b, tuner.BestConfig(), nil)
	if tuned.Failed {
		t.Fatalf("tuned run failed: %v", tuned.Err)
	}
	imp := (def.Duration - tuned.Duration) / def.Duration
	if imp < 0.10 || imp > 0.45 {
		t.Fatalf("expedited improvement = %.0f%%, want 10-45%% (paper: ~23%% for Terasort)", imp*100)
	}
	// Spill records drop to near-optimal (Fig 7).
	optimal := tuned.Counters.CombineOutputRecs
	if ratio := tuned.Counters.SpilledRecords() / optimal; ratio > 1.5 {
		t.Fatalf("tuned spill ratio = %.2f, want near 1", ratio)
	}
}

func TestConservativeSingleRunImproves(t *testing.T) {
	b := workload.Terasort(100, 752, 200)
	def := runJob(t, b, mrconf.Default(), nil)
	cons := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Conservative, Seed: 7})
	fast := runJob(t, b, mrconf.Default(), cons)
	if fast.Failed {
		t.Fatalf("conservative run failed: %v", fast.Err)
	}
	imp := (def.Duration - fast.Duration) / def.Duration
	if imp < 0.05 || imp > 0.35 {
		t.Fatalf("fast-single-run improvement = %.0f%%, want 5-35%% (paper: 8-22%%)", imp*100)
	}
}

func TestConservativeNeverHoldsLaunches(t *testing.T) {
	cons := NewTuner("j", 10, 2, mrconf.Default(), TunerOptions{Strategy: Conservative, Seed: 1})
	for i := 0; i < 10; i++ {
		if !cons.AllowLaunch(&mapreduce.Task{Type: mapreduce.MapTask, ID: i}) {
			t.Fatal("conservative tuner held a launch")
		}
	}
}

func TestSmallJobSearchStarves(t *testing.T) {
	// Fig 13: a 2 GB Terasort has only 16 maps, fewer than one global
	// wave (m=24); the search cannot complete a single wave, so the
	// tuned config stays near the default and gains are marginal.
	b := workload.Terasort(2, 0, 0)
	tuner := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Aggressive, Seed: 7})
	test := runJob(t, b, mrconf.Default(), tuner)
	if test.Failed {
		t.Fatal(test.Err)
	}
	if tuner.SearchDone() {
		t.Fatal("search should not converge with 16 map tasks")
	}
	best := tuner.BestConfig()
	// No map wave completed, so the map-scope parameters are the base
	// values (only rule-derived live parameters may differ).
	if best.SortMB() != mrconf.Default().SortMB() ||
		best.MapMemMB() != mrconf.Default().MapMemMB() {
		t.Fatalf("map-scope parameters changed without a completed wave: %s", best)
	}
}

func TestAggressiveOOMConfigsRecovered(t *testing.T) {
	// bigram has a 300 MB map working set: LHS samples with io.sort.mb
	// near the heap will OOM. The run must still complete, and the
	// best config must not be one of the OOM ones.
	b, err := workload.ByName("bigram/Freebase")
	if err != nil {
		t.Fatal(err)
	}
	tuner := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Aggressive, Seed: 3})
	test := runJob(t, b, mrconf.Default(), tuner)
	if test.Failed {
		t.Fatalf("test run failed: %v", test.Err)
	}
	tuned := runJob(t, b, tuner.BestConfig(), nil)
	if tuned.Failed {
		t.Fatalf("best config fails outright: %v", tuned.Err)
	}
	if tuned.Counters.OOMKills > 0 {
		t.Fatalf("best config caused %d OOM kills", tuned.Counters.OOMKills)
	}
}

func TestKnowledgeBaseWorkflow(t *testing.T) {
	// The Fig 3 workflow: test run -> store in KB -> later run looks
	// it up instead of re-tuning.
	b := workload.Terasort(20, 0, 0)
	tuner := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Aggressive, Seed: 7})
	runJob(t, b, mrconf.Default(), tuner)

	kb := NewKnowledgeBase()
	best := tuner.BestConfig()
	kb.Update(Key(b.Name, b.InputSizeMB), Entry{Config: &best})

	ent, _ := kb.Get(Key(b.Name, b.InputSizeMB*1.02))
	if ent.Config == nil {
		t.Fatal("KB lookup with near-identical size failed")
	}
	res := runJob(t, b, *ent.Config, nil)
	if res.Failed {
		t.Fatal("KB config failed")
	}
}

func TestUtilizationRisesUnderConservativeTuning(t *testing.T) {
	// Fig 15's mechanism in single-tenant form: conservative tuning
	// right-sizes containers, so memory utilization rises well above
	// the default's.
	b := workload.Terasort(60, 0, 0)
	def := runJob(t, b, mrconf.Default(), nil)
	cons := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Conservative, Seed: 7})
	fast := runJob(t, b, mrconf.Default(), cons)
	if fast.MapMemUtil <= def.MapMemUtil+0.1 {
		t.Fatalf("map memory utilization %0.2f -> %0.2f: no meaningful rise",
			def.MapMemUtil, fast.MapMemUtil)
	}
}
