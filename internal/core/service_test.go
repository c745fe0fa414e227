package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/workload"
)

// The tuning service is an aggressive test run against a knowledge
// base (experiments.Env.AggressiveTestRun, what `mronline -strategy
// aggressive -kb` drives) followed by runs of the stored configuration
// (what `-strategy kb` drives).

func TestServiceAggressiveStoresAndReuses(t *testing.T) {
	kb := core.NewKnowledgeBase()
	env := experiments.Env{Seed: 7, KB: kb}
	b := workload.Terasort(20, 0, 0)

	_, first := env.AggressiveTestRun(b)
	if first.Failed {
		t.Fatal(first.Err)
	}
	if kb.Len() != 1 {
		t.Fatalf("KB entries = %d, want 1 after aggressive run", kb.Len())
	}
	ent, _ := kb.Get(core.Key(b.Name, b.InputSizeMB))
	if ent.Config == nil {
		t.Fatalf("aggressive run stored no configuration: %+v", ent)
	}

	// A repeat submission of the same app+size runs the stored
	// configuration (observable through the reports' configs) and is
	// faster than the instrumented first run.
	kbCfg := *ent.Config
	second := experiments.Env{Seed: 7}.RunOne(b, kbCfg, nil)
	if second.Failed {
		t.Fatal(second.Err)
	}
	if second.Duration >= first.Duration {
		t.Fatalf("KB-configured run (%.0fs) not faster than the test run (%.0fs)",
			second.Duration, first.Duration)
	}
	for _, rep := range second.Reports {
		if rep.Type == mapreduce.MapTask && rep.Config.SortMB() != kbCfg.SortMB() {
			t.Fatalf("second run ignored the KB config: %v vs %v", rep.Config.SortMB(), kbCfg.SortMB())
		}
	}
}

// An entry that holds search state but no configuration (what a test
// run without a stored answer leaves) does not serve a job as-is: the
// class is still tuned, and the run deposits its configuration.
func TestServiceSearchOnlyEntryIsNotAHit(t *testing.T) {
	b := workload.Terasort(20, 0, 0)
	key := core.Key(b.Name, b.InputSizeMB)
	tn, res := experiments.Env{Seed: 3}.AggressiveTestRun(b)
	if res.Failed {
		t.Fatal(res.Err)
	}
	kb := core.NewKnowledgeBase()
	kb.Update(key, tn.ExportWarm())
	if e, _ := kb.Get(key); e.Config != nil || !e.Map.HaveBest {
		t.Fatalf("setup: want a search-only entry, got %+v", e)
	}

	_, res = experiments.Env{Seed: 7, KB: kb}.AggressiveTestRun(b)
	if res.Failed {
		t.Fatal(res.Err)
	}
	if e, _ := kb.Get(key); e.Config == nil || e.Jobs != 2 {
		t.Fatalf("search-only entry served as a hit: %+v", e)
	}
}
