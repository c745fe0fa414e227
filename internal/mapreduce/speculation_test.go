package mapreduce

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// stragglerRig interferes with two nodes right after the job starts so
// that tasks placed there crawl — the scenario speculation exists for.
func stragglerRig(t *testing.T, spec Spec) (Result, *Job) {
	t.Helper()
	r := newRig()
	r.eng.At(3, func() { // after the first wave has been placed
		for i := 0; i < 2; i++ {
			n := r.c.Nodes[i]
			for k := 0; k < 30; k++ {
				n.InjectDiskLoad(30, 3600, nil)
				n.InjectCPULoad(1, 3600, nil)
			}
		}
	})
	var res Result
	got := false
	j := Submit(r.rm, r.fs, spec, func(rr Result) { res = rr; got = true })
	r.eng.Run()
	if !got {
		t.Fatal("straggler job never completed")
	}
	return res, j
}

func TestSpeculationRescuesStragglers(t *testing.T) {
	b := workload.Terasort(20, 0, 0)
	without, _ := stragglerRig(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	with, _ := stragglerRig(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(),
		Speculation: DefaultSpeculation()})

	if with.Failed || without.Failed {
		t.Fatalf("runs failed: %v / %v", with.Err, without.Err)
	}
	if with.Counters.SpeculativeLaunches == 0 {
		t.Fatal("no speculative attempts launched despite stragglers")
	}
	if with.Counters.SpeculativeWins == 0 {
		t.Fatal("no speculative attempt ever won")
	}
	if with.Duration >= without.Duration {
		t.Fatalf("speculation (%.0fs) did not beat no-speculation (%.0fs)",
			with.Duration, without.Duration)
	}
}

func TestSpeculationPreservesInvariants(t *testing.T) {
	b := workload.Terasort(20, 0, 0)
	res, j := stragglerRig(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(),
		Speculation: DefaultSpeculation()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	checkInvariants(t, j, res)
	// Exactly one success report per logical task.
	seen := map[[2]int]int{}
	for _, r := range res.Reports {
		if r.OOM {
			continue
		}
		key := [2]int{int(r.Type), r.ID}
		seen[key]++
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("task %v has %d success reports", key, n)
		}
	}
	// Launch/win/kill bookkeeping is consistent: every launch ends in a
	// win (loser killed) or its own death.
	c := res.Counters
	if c.SpeculativeKills+c.OOMKills < c.SpeculativeWins {
		t.Fatalf("wins %d without matching kills %d", c.SpeculativeWins, c.SpeculativeKills)
	}
}

func TestSpeculationIdleOnHealthyCluster(t *testing.T) {
	// Without interference the lognormal skew tail may trigger an
	// occasional copy, but speculation must stay rare and never slow
	// the job down materially.
	b := workload.Terasort(20, 0, 0)
	plain := newRig().run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	j, res := newRig().runJob(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(),
		Speculation: DefaultSpeculation()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	checkInvariants(t, j, res)
	if res.Counters.SpeculativeLaunches > b.NumMaps/4 {
		t.Fatalf("%d speculative launches on a healthy cluster", res.Counters.SpeculativeLaunches)
	}
	if res.Duration > plain.Duration*1.1 {
		t.Fatalf("speculation slowed a healthy run: %.0fs vs %.0fs", res.Duration, plain.Duration)
	}
}

func TestSpeculationWithTunerCoexists(t *testing.T) {
	// Speculative copies reuse the original's per-task configuration;
	// a controller-driven job must still complete under interference.
	b := workload.Terasort(20, 0, 0)
	ctrl := &alternatingVcores{}
	res, j := stragglerRig(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(),
		Controller: ctrl, Speculation: DefaultSpeculation()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	checkInvariants(t, j, res)
}

func TestKillAttemptReleasesResources(t *testing.T) {
	// After a speculative job completes, no container memory may
	// remain allocated anywhere (kills released their containers), and
	// neither reduce headroom nor a speculative copy stays counted.
	b := workload.Terasort(20, 0, 0)
	res, j := stragglerRig(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(),
		Speculation: DefaultSpeculation()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	if res.Counters.SpeculativeKills == 0 {
		t.Fatal("no speculative loser was killed; the test exercises nothing")
	}
	checkInvariants(t, j, res)
}

func TestSpeculationTwoJobsUnderInterference(t *testing.T) {
	// Stragglers (mid-job interference) and speculation in two jobs
	// sharing the cluster under fair share.
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FairScheduler{})
	fs := hdfs.New(c, sim.NewSource(5).Stream("hdfs"))
	eng.At(3, func() {
		for i := 0; i < 2; i++ {
			n := c.Nodes[i]
			for k := 0; k < 20; k++ {
				n.InjectDiskLoad(30, 3600, nil)
				n.InjectCPULoad(1, 3600, nil)
			}
		}
	})
	long := workload.Terasort(60, 0, 0)
	short := workload.Terasort(6, 0, 0)
	var longRes, shortRes Result
	var shortJob *Job
	longJob := Submit(rm, fs, Spec{Name: "long", Benchmark: long, BaseConfig: mrconf.Default(),
		Speculation: DefaultSpeculation()}, func(r Result) { longRes = r })
	eng.At(40, func() {
		shortJob = Submit(rm, fs, Spec{Name: "short", Benchmark: short, BaseConfig: mrconf.Default(),
			Speculation: DefaultSpeculation()}, func(r Result) { shortRes = r })
	})
	eng.Run()
	if longRes.Failed || shortRes.Failed {
		t.Fatalf("jobs failed: %v / %v", longRes.Err, shortRes.Err)
	}
	// Resources fully returned.
	checkInvariants(t, longJob, longRes)
	checkInvariants(t, shortJob, shortRes)
}

func TestShadowOOMDropsQuietly(t *testing.T) {
	// A speculative copy that OOMs must be dropped without failing the
	// job or blocking the original.
	base := mrconf.Default()
	b, err := workload.ByName("bigram/Freebase")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to a quick variant with the same profile (high working
	// set -> shadows of skewed tasks can OOM under tight configs).
	b.NumMaps = 60
	b.NumReduces = 15
	b.InputSizeMB = 60 * b.SplitSizeMB()
	b.ShuffleSizeMB = b.InputSizeMB * b.Profile.RawMapSelectivity * b.Profile.CombinerReduction
	b.OutputSizeMB = b.ShuffleSizeMB * b.Profile.ReduceSelectivity

	res, j := stragglerRig(t, Spec{Benchmark: b, BaseConfig: base,
		Speculation: DefaultSpeculation(), Name: "bigram-mini"})
	if res.Failed {
		t.Fatalf("job failed: %v", res.Err)
	}
	checkInvariants(t, j, res)
}
